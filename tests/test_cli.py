import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regan.cli import (AnalysisConfig, ConfigError, CriteriaConfig, PdeConfig,
                       ProbeConfig, QuadConfig, main, run_pipeline,
                       validate_config)
from regan.coeff import builtin_families


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


@pytest.mark.parametrize("key, section, literal", [
    ("criteria.tol", "criteria", "NaN"),
    ("probes.rtol", "probes", "NaN"),
    ("quadrature.rel_tol", "quadrature", "NaN"),
    ("probes.kappa_threshold", "probes", "Infinity"),
    ("pde.h", "pde", "-Infinity"),
    ("probes.t0", "probes", "1e400"),
    ("radius_count", None, "Infinity"),
    ("radius_count", None, "1e400"),
    ("criteria.n_windows", "criteria", "Infinity"),
    ("criteria.n_windows", "criteria", "1e400"),
    ("quadrature.max_nodes", "quadrature", "-Infinity"),
    ("quadrature.max_nodes", "quadrature", "1e400"),
])
def test_non_finite_values_exit_2_naming_the_key(tmp_path, capsys, key, section,
                                                 literal):
    # NaN passes a `<= 0` test, and int(inf) overflows: both must be config errors
    name = key.split(".")[-1]
    cfg = minimal_config(**({section: {name: "@"}} if section else {name: "@"}))
    bad = tmp_path / "nonfinite.json"
    bad.write_text(json.dumps(cfg).replace('"@"', literal))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} must be" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_non_finite_s_grid_entries_are_rejected():
    with pytest.raises(ConfigError, match="probes.s_grid entries must be finite"):
        validate_config(minimal_config(probes={"s_grid": [0.0, float("nan")]}))
    with pytest.raises(ConfigError, match="probes.s_grid entries must be finite"):
        validate_config(minimal_config(probes={"s_grid": [0.0, 10**400]}))


JSON_LEAVES = (st.none() | st.booleans() | st.text(max_size=8)
               | st.integers(-10**400, 10**400) | st.integers(-3, 2000)
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.sampled_from([0.0, -0.0, 1e-300, 1e400, 0.5, 30.0]))
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=12)


def _section(cls):
    names = [f.name for f in fields(cls)] + ["bogus"]
    return st.dictionaries(st.sampled_from(names), JSON_VALUES, max_size=4)


def _perturbed(desc: dict):
    # a built-in descriptor with one key, or one key of its profile, set to
    # any value
    keys = sorted(desc) + [("profile", k) for k in
                           ("kind", "gamma", "alpha", "eta", "x")]

    def put(key, value):
        if isinstance(key, tuple):
            return {**desc, "profile": {**desc.get("profile", {}), key[1]: value}}
        return {**desc, key: value}

    return st.builds(put, st.sampled_from(keys), JSON_VALUES)


FAMILIES = (JSON_VALUES | st.sampled_from(list(builtin_families().values()))
            | st.sampled_from(list(builtin_families().values())).flatmap(_perturbed)
            | st.fixed_dictionaries({"family": st.just("trig_random"),
                                     "seed": JSON_VALUES},
                                    optional={"degree": JSON_VALUES,
                                              "amplitude": JSON_VALUES}))
CONFIGS = st.fixed_dictionaries({}, optional={
    "schema": st.just(1) | JSON_VALUES,
    "family": FAMILIES,
    "analyses": st.lists(st.sampled_from(["validate", "moments", "probes",
                                          "criteria", "pde", "compare", "x"]),
                         max_size=4) | JSON_VALUES,
    "radius_count": JSON_VALUES,
    "probes": _section(ProbeConfig) | JSON_VALUES,
    "criteria": _section(CriteriaConfig) | JSON_VALUES,
    "quadrature": _section(QuadConfig) | JSON_VALUES,
    "pde": _section(PdeConfig) | JSON_VALUES,
    "bogus": JSON_VALUES,
})


@settings(max_examples=200, deadline=None)
@given(raw=CONFIGS | JSON_VALUES)
def test_validate_config_accepts_or_raises_config_error(raw):
    # validation only: any JSON value is a config or a ConfigError, nothing else
    try:
        config = validate_config(raw)
    except ConfigError as exc:
        assert exc.violations
    else:
        assert isinstance(config, AnalysisConfig)


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
