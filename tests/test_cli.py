import json

import pytest

from regan.cli import (ConfigError, main, run_pipeline, validate_config)


def minimal_config(**extra):
    cfg = {"schema": 1,
           "family": {"family": "constant"},
           "analyses": ["validate", "moments", "probes", "criteria"],
           "probes": {"s_grid": [0.0, 2.0], "t_max": 15.0},
           "criteria": {"n_windows": 40, "prefix_windows": 60}}
    cfg.update(extra)
    return cfg


def test_minimal_config_defaults():
    cfg = validate_config({"schema": 1, "family": {"family": "constant"}})
    assert cfg.analyses == ("validate", "moments", "probes", "criteria")
    assert cfg.probes.t_max == 30.0
    assert cfg.pde.boundary == "v_rich_mix"


def test_config_violations_are_collected():
    with pytest.raises(ConfigError) as err:
        validate_config({"schema": 1,
                         "family": {"family": "constant"},
                         "analyses": ["compare"],
                         "probes": {"rtol": -1.0, "bogus": 2},
                         "typo": True})
    text = "; ".join(err.value.violations)
    assert "compare requires pde" in text
    assert "must be positive" in text
    assert "unknown key" in text
    assert "typo" in text


def test_config_rejects_bad_family_and_analyses():
    with pytest.raises(ConfigError, match="family"):
        validate_config({"schema": 1, "family": {"family": "nope"},
                         "analyses": ["validate"]})
    with pytest.raises(ConfigError, match="unknown analysis"):
        validate_config(minimal_config(analyses=["validate", "frobnicate"]))
    with pytest.raises(ConfigError, match="JSON"):
        validate_config("{not json")


def test_pipeline_constant_field(tmp_path):
    config = validate_config(minimal_config())
    report, code = run_pipeline(config, tmp_path)
    assert code == 0
    assert report["verdict"]["headline"] == "second_order_differentiable"
    assert report["results"]["validate"]["passes"]
    assert report["results"]["moments"]["max_identity_residual"] <= 1e-12
    assert report["results"]["probes"]["uniform_stability"] == "stable"
    assert report["results"]["probes"]["asymptotic_constancy"] == "constant"
    # eps = 0: the reduction ratios are undefined and flagged, not "inf"
    reduction = report["results"]["probes"]["reduction_check"]
    assert reduction["eps_zero"] and reduction["max_ratio"] is None
    assert set(reduction["ratio"]) == {None}
    for stage in ("probes", "criteria"):
        work = report["results"][stage]["moments_work"]
        assert work["radii"] > 0 and work["cap_hits"] == 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "moments.csv").exists()
    assert (tmp_path / "trajectory.csv").exists()
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert set(loaded) == {"schema", "version", "config", "results", "verdict",
                           "timings"}


def test_pipeline_unstable_family(tmp_path):
    config = validate_config(minimal_config(
        family={"family": "harmonic", "target": "a",
                "profile": {"kind": "log_inverse", "gamma": 0.5},
                "mode": 2, "phase": 0.0},
        analyses=["probes", "criteria"],
        probes={"s_grid": [0.0, 2.0, 5.0], "t_max": 30.0}))
    report, code = run_pipeline(config, tmp_path)
    assert code == 0
    assert report["verdict"]["headline"] == "no_guarantee"
    assert report["results"]["probes"]["uniform_stability"] == "unstable"
    by_id = {c["id"]: c for c in report["results"]["criteria"]["criteria"]}
    assert by_id["dini_R"]["verdict"] == "fails"
    assert by_id["special_a1_bounded"]["verdict"] == "fails"
    assert (tmp_path / "criterion_dini_R.csv").exists()


def test_pipeline_oscillatory_family_verdict(tmp_path):
    config = validate_config(minimal_config(
        family={"family": "harmonic", "target": "a",
                "profile": {"kind": "log_oscillatory", "gamma": 0.4, "eta": 1.0},
                "mode": 2, "phase": 0.0},
        analyses=["probes", "criteria"],
        probes={"s_grid": [0.0, 2.0, 5.0], "t_max": 30.0}))
    report, code = run_pipeline(config, tmp_path)
    assert code == 0
    assert report["verdict"]["headline"] == "second_order_differentiable"
    assert report["results"]["probes"]["uniform_stability"] == "stable"
    by_id = {c["id"]: c for c in report["results"]["criteria"]["criteria"]}
    assert by_id["iterated_L1"]["verdict"] == "holds"
    assert by_id["special_a1_converges"]["verdict"] == "holds"


def test_pipeline_pde_and_compare(tmp_path):
    config = validate_config({
        "schema": 1,
        "family": {"family": "constant"},
        "analyses": ["pde", "compare"],
        "pde": {"h": 2.0**-6, "boundary": "v_rich_mix"}})
    report, code = run_pipeline(config, tmp_path)
    assert code == 0
    pde = report["results"]["pde"]
    assert pde["residual_norm"] <= 1e-10
    assert pde["max_projection_residual"] <= 1e-10
    assert (tmp_path / "profile.csv").exists()
    assert (tmp_path / "solution.csv").exists()
    compare = report["results"]["compare"]
    assert compare["within_10x_floor"] in (True, False)
    assert compare["max_relative_deviation"] <= 10.0 * compare["control_floor"] + 1e-12


def test_pipeline_stage_failure_exits_3(tmp_path):
    config = validate_config({
        "schema": 1, "family": {"family": "constant"},
        "analyses": ["pde"],
        "pde": {"h": 0.3}})
    report, code = run_pipeline(config, tmp_path)
    assert code == 3
    assert "error" in report["results"]["pde"]


def test_config_type_errors_name_the_key(tmp_path, capsys):
    with pytest.raises(ConfigError, match="probes.t_max"):
        validate_config(minimal_config(probes={"t_max": "abc"}))
    with pytest.raises(ConfigError, match="probes.s_grid"):
        validate_config(minimal_config(probes={"s_grid": "abc"}))
    with pytest.raises(ConfigError, match="criteria must be an object"):
        validate_config(minimal_config(criteria=5))
    with pytest.raises(ConfigError, match="radius_count"):
        validate_config(minimal_config(radius_count="many"))

    bad = tmp_path / "typed.json"
    bad.write_text(json.dumps(minimal_config(probes={"t_max": "abc"})))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "probes.t_max" in err
    assert "Traceback" not in err


def test_config_rejects_s_grid_at_or_past_t_max(tmp_path):
    with pytest.raises(ConfigError, match="below probes.t_max"):
        validate_config(minimal_config(probes={"s_grid": [0, 40], "t_max": 30}))
    with pytest.raises(ConfigError, match="below probes.t_max"):
        validate_config(minimal_config(probes={"t_max": 10.0}))  # default grid reaches 20
    bad = tmp_path / "grid.json"
    bad.write_text(json.dumps(minimal_config(probes={"s_grid": [0, 40], "t_max": 30})))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key, extra", [
    ("radius_count", {"radius_count": 1001}),
    ("criteria.n_windows", {"criteria": {"n_windows": 1001}}),
    ("criteria.prefix_windows", {"criteria": {"prefix_windows": 1001}}),
    ("probes.t_max", {"probes": {"t_max": 701.0}}),
    ("probes.t_max", {"probes": {"t_max": 1e6}}),
    ("pde.h", {"pde": {"h": 2.0**-10}}),
])
def test_runaway_sizes_exit_2_naming_the_key(tmp_path, capsys, key, extra):
    # rejected by validation: nothing of the oversized run is started
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(minimal_config(**extra)))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} must be at" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_failed_probes_stage_exits_3_with_report(tmp_path):
    config = validate_config(minimal_config(analyses=["probes", "criteria"]))
    config.probes.s_grid = (0.0, 40.0)   # past t_max: the probe itself refuses
    report, code = run_pipeline(config, tmp_path)
    assert code == 3
    assert "error" in report["results"]["probes"]
    assert "criteria" not in report["results"]
    assert report["verdict"] == {"headline": "no_guarantee", "probe_annotation": None}
    assert (tmp_path / "report.json").exists()


def test_removed_knobs_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        validate_config(minimal_config(seed=3))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_config(analyses=["validate"])))
    for flag in ("--seed", "--threads"):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(good), "--out", str(tmp_path / "o"),
                  flag, "1"])
        assert exc.value.code == 2


def test_report_determinism(tmp_path):
    config = validate_config(minimal_config())
    run_pipeline(config, tmp_path / "one")
    run_pipeline(config, tmp_path / "two")
    first = json.loads((tmp_path / "one" / "report.json").read_text())
    second = json.loads((tmp_path / "two" / "report.json").read_text())
    first.pop("timings")
    second.pop("timings")
    dump = lambda r: json.dumps(r, sort_keys=True)
    assert dump(first) == dump(second)


def test_main_families_and_exit_codes(tmp_path, capsys):
    assert main(["families"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert "constant" in listing and "oscillatory_log" in listing

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 2, "family": {"family": "constant"}}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2

    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_config(analyses=["validate"])))
    assert main(["run", "--config", str(good), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["validate"]["passes"]
