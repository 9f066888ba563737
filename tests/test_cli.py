import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from regan import cli, coeff, criteria, dynsys, pdelab
from regan.cli import (ANALYSES, MAX_CONFIG_BYTES, AnalysisConfig, ConfigError,
                       CriteriaConfig, PdeConfig, ProbeConfig, main, run_pipeline,
                       validate_config)
from regan.coeff import builtin_families, family_from_descriptor
from regan.pdelab import BOUNDARY_LIBRARY


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
    assert compare["moments_work"]["radii"] > 0
    assert compare["moments_work"]["cap_hits"] == 0


def _last_line_of_fresh_process(script: str) -> str:
    """The last line a new Python process running script prints, with this
    checkout's regan on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_pde_pipeline_never_imports_scipy_fft():
    # the pde stage loads no scipy module at all: `import numpy,
    # scipy.sparse.linalg` reads 58.9 MB of peak RSS against 26.9 MB for
    # numpy alone, and with no other scipy module loaded, importing scipy.fft
    # costs about 27 MB; the sine transforms of pdelab run on numpy.fft and
    # its GMRES on numpy
    script = (
        "import json, sys, tempfile\n"
        "from regan import cli\n"
        "config = cli.validate_config({'schema': 1, 'family': {'family': 'constant'},"
        " 'analyses': ['pde', 'compare'], 'pde': {'h': 2.0**-6}})\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    _, code = cli.run_pipeline(config, out)\n"
        "print(json.dumps([code, 'scipy.fft' in sys.modules,\n"
        "                  'scipy' in {m.split('.')[0] for m in sys.modules}]))\n")
    assert json.loads(_last_line_of_fresh_process(script)) == [0, False, False]


def test_validating_a_config_never_imports_scipy_sparse():
    # no module of regan imports scipy.sparse; in the benchmark's child
    # process that import alone raised the RSS from 33.1 to 60.8 MB
    script = (
        "import sys\n"
        "from regan import cli\n"
        "cli.validate_config({'schema': 1, 'family': {'family': 'constant'}})\n"
        "print('scipy.sparse' in sys.modules)\n")
    assert _last_line_of_fresh_process(script) == "False"


def test_compare_reports_the_work_of_the_fields_8x8_system(tmp_path, monkeypatch):
    # the control's system evaluates its radii through the same function,
    # so count the radii per field
    seen = {}
    tables = dynsys.block_tables
    monkeypatch.setattr(dynsys, "block_tables", lambda field, radii, quad: (
        seen.__setitem__(field.label, seen.get(field.label, 0) + len(radii))
        or tables(field, radii, quad)))
    config = validate_config({
        "schema": 1, "family": builtin_families()["dini_power"],
        "analyses": ["pde", "compare"]})
    report, code = run_pipeline(config, tmp_path)
    assert code == 0
    field = family_from_descriptor(builtin_families()["dini_power"])
    # the field's table fills 32 nodes and a midpoint per window
    work = report["results"]["compare"]["moments_work"]
    assert work == {"radii": seen[field.label], "cap_hits": 0,
                    "windows": work["windows"], "unresolved_windows": 0}
    assert seen[field.label] == 33 * work["windows"] > 0
    assert seen["constant"] > 0


def test_a_run_fills_each_window_once_across_its_stages(tmp_path, monkeypatch):
    # every radius the exact systems evaluate in a batch, per system kind
    seen = {"reduced": Counter(), "full": Counter()}
    for kind, cls in (("reduced", dynsys.ReducedSystem), ("full", dynsys.FullSystem)):
        def counted(self, radii, _batch=cls._batch, _seen=seen[kind]):
            if self.field.label != "constant":
                _seen.update(radii)
            return _batch(self, radii)
        monkeypatch.setattr(cls, "_batch", counted)
    desc = builtin_families()["oscillatory_log"]
    config = validate_config({
        "schema": 1, "family": desc, "analyses": list(ANALYSES),
        "probes": {"system": "full", "s_grid": [0.0, 1.0], "t_max": 4.0},
        "criteria": {"n_windows": 8, "prefix_windows": 12}})
    report, code = run_pipeline(config, tmp_path)
    assert code == 0
    work = {stage: report["results"][stage]["moments_work"]
            for stage in ("probes", "criteria", "compare")}
    # the probes fill windows 0-5 of the 8x8 table and compare reads inside
    # them; the criteria fill windows 0-11 of the reduced table
    assert [work[stage]["windows"] for stage in work] == [6, 12, 0]
    assert max(seen["full"].values()) == max(seen["reduced"].values()) == 1
    # 33 radii per window, r = 1 and the reduction check's 30
    assert sum(seen["full"].values()) == 33 * 6 + 1 + 30 == work["probes"]["radii"]
    assert sum(seen["reduced"].values()) == 33 * 12 + 1 + 30
    assert work["compare"]["radii"] == 0


def test_compare_control_evaluates_one_radius_and_its_lift(tmp_path, monkeypatch):
    # the control's drift matrix is the same at every t: one block table
    # gives it, and one more is the lift at the largest profile radius
    radii = {"block_tables": [], "block_table": []}
    for name in radii:
        def counted(field, r, quad, _fn=getattr(dynsys, name), _seen=radii[name]):
            if field.label == "constant":
                _seen.append(np.size(r))
            return _fn(field, r, quad)
        monkeypatch.setattr(dynsys, name, counted)
    config = validate_config({
        "schema": 1, "family": builtin_families()["dini_power"],
        "analyses": ["pde", "compare"]})
    _, code = run_pipeline(config, tmp_path)
    assert code == 0
    assert radii == {"block_tables": [1], "block_table": [1]}


SECOND_ORDER_BY = ["dini_R", "iterated_L1", "special_a1_converges",
                   "special_a2_extended"]


@pytest.mark.parametrize("name, phase, headline, decided_by", [
    ("constant", 0.0, "second_order_differentiable", SECOND_ORDER_BY),
    ("dini_power", 0.0, "second_order_differentiable", SECOND_ORDER_BY),
    ("radial_log", 0.0, "second_order_differentiable", SECOND_ORDER_BY),
    ("oscillatory_log", 0.0, "second_order_differentiable", SECOND_ORDER_BY[1:]),
    ("square_dini_log", 0.0, "no_guarantee", []),
    # a = 1 - g sin 2 theta: the headline rests on the special_* checks alone,
    # which test the decoupled case in the coordinate frame only
    ("square_dini_log", math.pi / 2, "second_order_differentiable",
     ["special_a1_converges", "special_a2_extended"]),
])
def test_verdict_names_the_criteria_that_decide_it(tmp_path, name, phase,
                                                    headline, decided_by):
    family = dict(builtin_families()[name])
    if "phase" in family:
        family["phase"] = phase
    report, code = run_pipeline(validate_config(minimal_config(
        family=family, analyses=["criteria"], criteria={})), tmp_path)
    assert code == 0
    assert report["verdict"]["headline"] == headline
    assert report["verdict"]["decided_by"] == decided_by
    implied = {c["id"]: c["implied_conclusion"]
               for c in report["results"]["criteria"]["criteria"]}
    assert decided_by == [i for i, v in implied.items() if v == headline]


def test_pde_stage_reports_its_solves(tmp_path):
    config = validate_config({
        "schema": 1, "family": builtin_families()["dini_power"],
        "analyses": ["pde"], "pde": {"h": 2.0**-6}})
    report, code = run_pipeline(config, tmp_path)
    assert code == 0
    pde = report["results"]["pde"]
    solves = pde["solves"]
    assert sorted(solves) == ["control", "field"]
    for solve in solves.values():
        assert sorted(solve) == ["iterations", "residual_history"]
        assert solve["iterations"] == len(solve["residual_history"])
    # the control's stencil is the preconditioner's own Laplacian
    assert solves["control"]["iterations"] == 1
    assert 1 < solves["field"]["iterations"] < pdelab.GMRES_MAX_ITER
    assert max(pde["residual_norm"], pde["control_residual_norm"]) <= pdelab.SOLVER_TOL


def test_stalled_solve_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(pdelab, "_laplacian_solve", lambda f: -0.25 * f)
    config = validate_config({
        "schema": 1, "family": {"family": "constant"}, "analyses": ["pde"]})
    report, code = run_pipeline(config, tmp_path)
    assert code == 3
    assert "stalled" in report["results"]["pde"]["error"]


def test_pipeline_stage_failure_exits_3(tmp_path):
    config = validate_config({
        "schema": 1, "family": {"family": "constant"},
        "analyses": ["pde"]})
    config.pde.h = 0.3   # no even cell count: validation refuses it, the solve too
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


# the settable values of older configs that the library now fixes: each is
# an unknown key (the quadrature section is an unknown top-level key)
REMOVED_KEYS = {
    "probes.t0": 1.0, "probes.kappa_threshold": 1e3, "probes.slope_margin": 0.01,
    "probes.const_tol": 0.25, "probes.growth_factor": 2.5,
    "criteria.tol": 0.05, "criteria.group": 4,
    "quadrature.base_nodes": 32, "quadrature.max_nodes": 2**14,
    "quadrature.rel_tol": 1e-13,
    "pde.half_width": 0.6875, "pde.p": 4.0, "pde.solver_tol": 1e-10,
    "pde.nodes_per_circle": 256, "pde.radii_per_octave": 4,
}


def _unknown_key_error(key: str) -> str:
    section, name = key.split(".")
    if section == "quadrature":
        return "config error: unknown top-level key 'quadrature'"
    return f"config error: {section}: unknown key {name!r}"


def _main_exit(tmp_path, cfg, literal=None):
    """main's exit code and stderr on cfg; literal replaces the string "@"."""
    path = tmp_path / "cfg.json"
    text = json.dumps(cfg)
    path.write_text(text if literal is None else text.replace('"@"', literal))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    return code, err.getvalue()


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
    ("probes.t_max", "probes", "NaN"),
    ("probes.rtol", "probes", "Infinity"),
    ("pde.h", "pde", "NaN"),
    ("pde.h", "pde", "1e400"),
    ("criteria.prefix_windows", "criteria", "-Infinity"),
    ("criteria.prefix_windows", "criteria", "1e400"),
])
def test_non_finite_values_exit_2_naming_the_key(tmp_path, key, section, literal):
    # NaN passes a `<= 0` test, and int(inf) overflows: both must be config
    # errors; a removed key is refused as unknown whatever its value
    name = key.split(".")[-1]
    cfg = minimal_config(**({section: {name: "@"}} if section else {name: "@"}))
    code, err = _main_exit(tmp_path, cfg, literal)
    assert code == 2
    assert (_unknown_key_error(key) if key in REMOVED_KEYS
            else f"config error: {key} must be") in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, extra", [
    ("probes.t_max", {"probes": {"s_grid": [0.0], "t_max": 1.0}}),
    ("probes.t_max", {"probes": {"s_grid": [0.0], "t_max": 0.5}}),
    ("probes.rtol", {"probes": {"rtol": 1e-2}}),
    ("probes.rtol", {"probes": {"rtol": 1e-13}}),
    ("pde.h", {"pde": {"h": 0.1}}),
    ("pde.h", {"pde": {"h": 0.3}}),
    ("pde.h", {"pde": {"h": 1.375 / 6}}),
    ("pde.h", {"pde": {"h": 2.0**-5}}),       # even, but too few radii
    ("pde.h", {"pde": {"h": 1.375 / 54}}),
])
def test_values_a_stage_would_refuse_exit_2_naming_the_key(tmp_path, key, extra):
    # each of these once passed validation and failed inside a stage (exit 3)
    code, err = _main_exit(tmp_path, minimal_config(analyses=["probes", "pde"], **extra))
    assert code == 2
    assert f"config error: {key}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _oscillatory(eta):
    return {"family": "harmonic", "target": "a", "mode": 2,
            "profile": {"kind": "log_oscillatory", "gamma": 0.4, "eta": eta}}


def test_config_accepts_edge_values_of_the_stage_limits():
    config = validate_config(minimal_config(
        probes={"s_grid": [0.0], "t_max": 1.5, "rtol": 1e-12},
        pde={"h": 1.375 / 56}))
    assert (config.probes.rtol, config.pde.h) == (1e-12, 1.375 / 56)
    assert validate_config(minimal_config(probes={"rtol": 1e-3})).probes.rtol == 1e-3
    assert validate_config(minimal_config(pde={"h": 2.0**-9})).pde.h == 2.0**-9
    for amplitude in (0, 0.5):
        validate_config(minimal_config(family={"family": "trig_random", "seed": 1,
                                               "amplitude": amplitude}))
    for eta in (-100, 100):
        validate_config(minimal_config(family=_oscillatory(eta)))


@pytest.mark.parametrize("family, key", [
    ({"family": "trig_random", "seed": 1, "amplitude": 1e155}, "amplitude"),
    ({"family": "trig_random", "seed": 1, "amplitude": 0.9}, "amplitude"),
    ({"family": "trig_random", "seed": 1, "amplitude": 5}, "amplitude"),
    ({"family": "trig_random", "seed": 1, "amplitude": -0.2}, "amplitude"),
    (_oscillatory(1000), "eta"),
    (_oscillatory(-1e9), "eta"),
])
def test_family_values_past_their_bounds_exit_2_naming_the_key(tmp_path, family, key):
    # a trig_random amplitude past 1/2 once overflowed (exit 1 with a
    # traceback) or declared a wrong ellipticity bound, and the run time of a
    # log_oscillatory family grows without bound with eta
    code, err = _main_exit(tmp_path, minimal_config(family=family,
                                                    analyses=["probes"]))
    assert code == 2
    line, = err.strip().splitlines()
    assert line.startswith(f"config error: family: {key} must lie in")
    assert not (tmp_path / "o").exists()


def _harmonic(mode=2, phase=0.0):
    return {"family": "harmonic", "target": "a", "mode": mode, "phase": phase,
            "profile": {"kind": "power", "gamma": 0.3, "alpha": 0.5}}


@pytest.mark.parametrize("family, key, literal", [
    (_harmonic(mode=coeff.MAX_MODE + 1), "angular_mode", None),
    (_harmonic(mode=10**12), "angular_mode", None),
    (_harmonic(mode="@"), "angular_mode", "1" + "0" * 400),
    (_harmonic(phase=1e8), "phase", None),
    (_harmonic(phase=-1e15), "phase", None),
    (_harmonic(phase=6.3), "phase", None),
])
def test_harmonic_mode_and_phase_past_their_bounds_exit_2(tmp_path, family,
                                                         key, literal):
    # mode 10**12 once ran unbounded, 10**400 failed inside a stage (exit
    # 3), and a phase of 1e8 sent many radii to the quadrature's node cap
    code, err = _main_exit(tmp_path, minimal_config(
        family=family, analyses=["validate", "probes"],
        probes={"s_grid": [0], "t_max": 3}), literal)
    assert code == 2
    line, = err.strip().splitlines()
    assert line.startswith(f"config error: family: {key} must lie in")
    assert not (tmp_path / "o").exists()


def test_config_accepts_the_edge_modes_and_phases():
    for mode in (2, coeff.MAX_MODE):
        for phase in (-2.0 * np.pi, 2.0 * np.pi):
            validate_config(minimal_config(family=_harmonic(mode, phase)))


@pytest.mark.parametrize("s_grid, key", [
    ([-100000.0], "probes.s_grid must be at least 0"),
    ([-1e308], "probes.s_grid must be at least 0"),
    ([-0.5, 1.0], "probes.s_grid must be at least 0"),
    (list(range(65)), "len(probes.s_grid) must be at most 64"),
    ([], "len(probes.s_grid) must be positive"),
])
def test_s_grid_out_of_bounds_exits_2_naming_the_key(tmp_path, s_grid, key):
    # a negative entry asks for radii r = e^-s > 1 (once "math range error",
    # exit 3), and each entry is one probes lane holding all its samples
    code, err = _main_exit(tmp_path, minimal_config(
        analyses=["probes"], probes={"s_grid": s_grid, "t_max": 100.0}))
    assert code == 2
    line, = err.strip().splitlines()
    assert line.startswith(f"config error: {key}")
    assert not (tmp_path / "o").exists()


def test_config_accepts_the_edge_s_grids():
    for grid in ([0.0], [float(s) for s in range(64)]):
        config = validate_config(minimal_config(probes={"s_grid": grid,
                                                        "t_max": 64.5}))
        assert config.probes.s_grid == tuple(grid)


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


def _section(section, cls=None):
    # the section's keys, its removed keys and one that never existed
    names = ([f.name for f in fields(cls)] if cls else []) + ["bogus"] + [
        key.split(".")[1] for key in REMOVED_KEYS if key.startswith(section + ".")]
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
    "probes": _section("probes", ProbeConfig) | JSON_VALUES,
    "criteria": _section("criteria", CriteriaConfig) | JSON_VALUES,
    "quadrature": _section("quadrature") | JSON_VALUES,
    "pde": _section("pde", PdeConfig) | JSON_VALUES,
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


def _smoke_sized(raw):
    """raw with its run sizes capped at smoke sizes (t_max <= 4, windows and
    radii <= 24, pde.h >= 2^-6), filled in where raw leaves them out."""
    if not isinstance(raw, dict):
        return raw
    raw = dict(raw)
    number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if number(raw.get("radius_count")):
        raw["radius_count"] = min(raw["radius_count"], 24)
    smoke = {"probes": {"t_max": (4.0, min), "s_grid": ([0.0, 1.0], None)},
             "criteria": {"n_windows": (16, min), "prefix_windows": (24, min)},
             "pde": {"h": (2.0**-6, max)}}
    for name, keys in smoke.items():
        section = raw.setdefault(name, {})
        if not isinstance(section, dict):
            continue
        section = raw[name] = dict(section)
        for key, (size, bound) in keys.items():
            if key not in section:
                section[key] = size
            elif bound and number(section[key]) and section[key] > 0:
                section[key] = bound(section[key], size)
    return raw


# configs near the valid ones, so that most reach the pipeline; CONFIGS
# alone almost never passes validation
RUNNABLE = st.fixed_dictionaries({
    "family": st.sampled_from(list(builtin_families().values()))
    | st.builds(lambda seed: {"family": "trig_random", "seed": seed},
                st.integers(0, 50)),
}, optional={
    "analyses": st.lists(st.sampled_from(ANALYSES), min_size=1, max_size=3,
                         unique=True),
    "radius_count": st.integers(1, 24),
    "probes": st.fixed_dictionaries({}, optional={
        "system": st.sampled_from(["reduced", "full"]),
        "s_grid": st.sampled_from([[0.0], [0.0, 1.0], [0.5, 2.0], [3.0]]),
        "t_max": st.floats(0.5, 4.0),
        "rtol": st.sampled_from([1e-12, 1e-10, 1e-6, 1e-3, 1e-2])}),
    "criteria": st.fixed_dictionaries({}, optional={
        "n_windows": st.integers(1, 24), "prefix_windows": st.integers(1, 24)}),
    "pde": st.fixed_dictionaries({}, optional={
        "h": st.sampled_from([2.0**-6, 1.375 / 56, 2.0**-5, 0.1]),
        "boundary": st.sampled_from(sorted(BOUNDARY_LIBRARY) + ["x"])}),
})


@settings(max_examples=60, deadline=None)
@given(raw=CONFIGS | RUNNABLE)
def test_main_exits_0_2_or_3_on_any_config(raw):
    # the whole CLI, pipeline included: a config error, a numeric failure or
    # success, and never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _main_exit(Path(tmp), _smoke_sized(raw))
    assert code in (0, 2, 3)
    assert "Traceback" not in err


def _main_on_bytes(tmp_path, data: bytes, out=None):
    """main's exit code and stderr on a config file holding data."""
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path),
                     "--out", str(out or tmp_path / "o")])
    return code, err.getvalue()


VALID = json.dumps(minimal_config(analyses=["validate"])).encode()


@pytest.mark.parametrize("data, out", [
    (b"\xff\xfe{", None),
    (b"[" * 100_000 + b"]" * 100_000, None),
    (b'{"radius_count": ' + b"9" * 5000 + b', "family": {"family": "constant"}}',
     None),
    (VALID, "file"),
    (VALID, "file/sub"),
], ids=["not_utf8", "nested_100000", "int_5000_digits", "out_is_file",
        "out_under_file"])
def test_unreadable_config_or_out_exits_2_with_one_line(tmp_path, monkeypatch,
                                                        data, out):
    (tmp_path / "file").write_text("occupied")
    # the --out cases must stop before any stage runs
    monkeypatch.setattr("regan.cli.run_pipeline",
                        lambda *a: pytest.fail("run_pipeline was called"))
    code, err = _main_on_bytes(tmp_path, data, out and tmp_path / out)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=300))
def test_main_exits_0_2_or_3_on_any_config_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _main_on_bytes(Path(tmp), data)
    assert code in (0, 2, 3)
    assert "Traceback" not in err


def test_failed_probes_stage_exits_3_with_report(tmp_path):
    config = validate_config(minimal_config(analyses=["probes", "criteria"]))
    config.probes.s_grid = (0.0, 40.0)   # past t_max: the probe itself refuses
    report, code = run_pipeline(config, tmp_path)
    assert code == 3
    assert "error" in report["results"]["probes"]
    assert "criteria" not in report["results"]
    assert report["verdict"] == {"headline": "no_guarantee", "decided_by": [],
                                 "probe_annotation": None}
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
    # thresholds, quadrature and pde sizes are the library's, even at their
    # old default values
    for key, value in REMOVED_KEYS.items():
        section, name = key.split(".")
        code, err = _main_exit(tmp_path, minimal_config(**{section: {name: value}}))
        assert code == 2, key
        assert _unknown_key_error(key) in err
        assert "Traceback" not in err
    # a config that once bent an unstable family's verdict to stable
    code, err = _main_exit(tmp_path, {
        "schema": 1, "family": builtin_families()["square_dini_log"],
        "probes": {"slope_margin": 1e9, "kappa_threshold": 1e300}})
    assert code == 2
    assert "probes: unknown key 'slope_margin'" in err
    assert "probes: unknown key 'kappa_threshold'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, extra", [
    ("radius_count", {"radius_count": True}),
    ("radius_count", {"radius_count": 20.0}),
    ("criteria.n_windows", {"criteria": {"n_windows": "16"}}),
    ("criteria.n_windows", {"criteria": {"n_windows": False}}),
    ("criteria.prefix_windows", {"criteria": {"prefix_windows": 24.9}}),
    ("probes.t_max", {"probes": {"t_max": "30"}}),
    ("probes.rtol", {"probes": {"rtol": True}}),
    ("probes.s_grid", {"probes": {"s_grid": [0.0, "2"]}}),
    ("probes.system", {"probes": {"system": 5}}),
    ("pde.h", {"pde": {"h": "0.015625"}}),
    ("schema", {"schema": True}),
    ("family: seed", {"family": {"family": "trig_random", "seed": True}}),
    ("family: gamma", {"family": {"family": "radial", "target": "a",
                                  "profile": {"kind": "log_inverse",
                                              "gamma": "0.4"}}}),
])
def test_loosely_typed_numbers_exit_2_naming_the_key(tmp_path, key, extra):
    # counts take JSON integers only, other numbers integers or floats, and
    # a bool or a string is never a number
    code, err = _main_exit(tmp_path, minimal_config(**extra))
    assert code == 2
    assert f"config error: {key}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_float_keys_take_integers():
    config = validate_config(minimal_config(probes={"s_grid": [0, 2], "t_max": 15}))
    assert config.probes.t_max == 15.0 and isinstance(config.probes.t_max, float)
    assert config.probes.s_grid == (0, 2)


def test_config_past_the_read_cap_exits_2_with_one_line(tmp_path, monkeypatch):
    monkeypatch.setattr("regan.cli.run_pipeline", lambda *a: ({}, 0))
    valid = json.dumps(minimal_config(analyses=["validate"])).encode()
    at_cap = valid + b" " * (MAX_CONFIG_BYTES - len(valid))
    assert _main_on_bytes(tmp_path, at_cap) == (0, "")
    code, err = _main_on_bytes(tmp_path, at_cap + b" ")
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert f"larger than {MAX_CONFIG_BYTES} bytes" in err


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")
def test_endless_config_device_exits_2_with_one_line(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", "/dev/zero", "--out", str(tmp_path / "o")])
    assert code == 2
    assert len(err.getvalue().strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("system", ["reduced", "full"])
def test_probes_stage_matches_the_public_probes_in_sequence(tmp_path, system):
    desc = builtin_families()["oscillatory_log"]
    config = validate_config({"schema": 1, "family": desc, "probes": {
        "system": system, "s_grid": [0.0, 1.0], "t_max": 4.0}})
    field = family_from_descriptor(desc)
    payload = cli._stage_probes(config, cli._drift_tables(field), tmp_path)
    probed = (dynsys.ReducedBlockSystem(dynsys.DriftTable(dynsys.FullSystem(field)))
              if system == "full" else dynsys.DriftTable(dynsys.ReducedSystem(field)))
    _assert_probes_payload_is_the_public_probes(payload, probed, config, tmp_path)
    # the reduction check reads the exact systems, not the tables
    assert payload["reduction_check"] == dynsys.reduction_deviation(
        dynsys.FullSystem(field), dynsys.ReducedSystem(field),
        np.linspace(1.0, config.probes.t_max, 30))


def test_probes_stage_reads_the_exact_system_where_the_table_is_unresolved(tmp_path):
    # a = 1 + 0.2 cos(2 phi) sin(60 log r): 32 nodes per window do not resolve
    # a drift that oscillates 60 times per unit of t, so every window the
    # lanes meet is unresolved and the stage is the exact system's, bit for bit
    base = coeff.constant_laplacian()
    field = coeff.CoefficientField(
        lambda x, y: 1.0 + 0.2 * (x * x - y * y) / (x * x + y * y)
        * np.sin(30.0 * np.log(x * x + y * y)),
        base.b, base.c, base.modulus, ellipticity_lower=2.0, label="fast")
    config = validate_config({"schema": 1, "family": {"family": "constant"},
                              "probes": {"s_grid": [0.0, 0.5], "t_max": 2.0}})
    tables = cli._drift_tables(field)
    payload = cli._stage_probes(config, tables, tmp_path)
    _assert_probes_payload_is_the_public_probes(
        payload, dynsys.ReducedSystem(field), config, tmp_path)
    work = payload["moments_work"]
    assert work["windows"] == work["unresolved_windows"] == 3
    assert work["radii"] > 33 * 3 + 1 + 30


def _assert_probes_payload_is_the_public_probes(payload, probed, config, tmp_path):
    """The probes stage's payload and trajectory.csv are those of the
    public probes on the system `probed`, bit for bit."""
    pc = config.probes
    stab = dynsys.uniform_stability_probe(probed, pc.s_grid, pc.t_max, pc.rtol)
    const = dynsys.asymptotic_constancy_probe(probed, cli.CONSTANCY_T0, pc.t_max,
                                              pc.rtol)
    # trajectory.csv holds the samples of lane 0, the one from min(s_grid)
    (s, ts), = dynsys.stability_lanes(pc.s_grid[:1], pc.t_max)
    phis, _ = dynsys.propagate_dense(probed, s, ts, pc.rtol)
    for key in ("uniform_stability", "kappa_max", "growth_slope"):
        assert payload[key] == getattr(stab, key)
    for key in ("asymptotic_constancy", "deviation_half", "norm_growth"):
        assert payload[key] == getattr(const, key)
    assert payload["kappa_samples"] == [list(row) for row in stab.kappa_samples]
    assert payload["constancy_samples"] == [[float(v) for v in row]
                                            for row in const.constancy_samples]
    # one row per sample, each value in %.17g, so the CSV reads back exactly
    rows = [",".join("%.17g" % v for v in [t, *phi.ravel()])
            for t, phi in zip(ts, phis)]
    assert (tmp_path / "trajectory.csv").read_text().splitlines()[1:] == rows


def test_six_lane_probes_stage_batches_its_steps(tmp_path, monkeypatch):
    calls = []
    vectors = dynsys.moment_vectors
    monkeypatch.setattr(dynsys, "moment_vectors",
                        lambda *args: calls.append(len(args[1])) or vectors(*args))
    desc = builtin_families()["dini_power"]
    config = validate_config({"schema": 1, "family": desc, "analyses": ["probes"],
                              "probes": {"s_grid": [0.0, 0.5, 1.0, 1.5, 2.0],
                                         "t_max": 4.0}})
    payload = cli._stage_probes(config, cli._drift_tables(family_from_descriptor(desc)),
                                tmp_path)
    work = payload["integrator"]
    assert sorted(work) == ["accepted", "discarded", "est_error", "rejected", "rounds"]
    steps = work["accepted"] + work["rejected"]
    # one `matrices` call per round for a block of steps of all six lanes,
    # not one per step
    assert work["rounds"] < steps / 20
    assert 0.0 < work["est_error"] < 1e-6
    # the lanes read windows 0-5 of the table, each filled once with 32
    # nodes and a midpoint, and r = 1; the reduction check is one batch of 30
    assert payload["moments_work"] == {"radii": 33 * 6 + 1 + 30, "cap_hits": 0,
                                       "windows": 6, "unresolved_windows": 0}
    assert sum(calls) == payload["moments_work"]["radii"]
    assert len(calls) <= 6 + 1 and 30 in calls


def test_full_mode_probes_report_the_work_of_the_8x8_system(tmp_path, monkeypatch):
    # the probes once reported the reduced system's 30 reduction-check radii
    # here, not the radii of the system they propagated
    calls = []
    tables = dynsys.block_tables
    monkeypatch.setattr(dynsys, "block_tables",
                        lambda *args: calls.append(len(args[1])) or tables(*args))
    desc = builtin_families()["oscillatory_log"]
    config = validate_config({"schema": 1, "family": desc, "analyses": ["probes"],
                              "probes": {"system": "full", "s_grid": [0.0, 1.0],
                                         "t_max": 4.0}})
    payload = cli._stage_probes(config, cli._drift_tables(family_from_descriptor(desc)),
                                tmp_path)
    assert payload["moments_work"] == {"radii": sum(calls), "cap_hits": 0,
                                       "windows": 6, "unresolved_windows": 0}
    assert sum(calls) == 33 * 6 + 1 + 30


@pytest.mark.parametrize("stage, windows, most", [("probes", 44, 40),
                                                   ("criteria", 120, 4)])
def test_default_stages_evaluate_their_radii_in_few_batches(tmp_path, monkeypatch,
                                                            stage, windows, most):
    # one batch per round (611 calls) and one per criteria window (121) before
    # the stages read a table that fills all the windows a call touches in
    # one batch: the probes' lanes meet a window or two per round
    calls = []
    vectors = dynsys.moment_vectors
    monkeypatch.setattr(dynsys, "moment_vectors",
                        lambda *args: calls.append(len(args[1])) or vectors(*args))
    config = validate_config({"schema": 1, "analyses": [stage],
                              "family": builtin_families()["oscillatory_log"]})
    report, code = run_pipeline(config, tmp_path)
    assert code == 0
    assert len(calls) <= most
    work = report["results"][stage]["moments_work"]
    assert work["windows"] == windows and work["unresolved_windows"] == 0
    # 32 nodes and a midpoint per window and r = 1, the probes' 30 radii of
    # the reduction check, and the decoupled criterion's applicability
    # samples read one radius at a time through `matrix`, but for the two
    # the table holds: t = 0 at r = 1 and sample 16 at the midpoint of
    # window 59
    singles = work["radii"] - sum(calls)
    assert sum(calls) == 33 * windows + 1 + (30 if stage == "probes" else 0)
    assert singles == (criteria.APPLICABILITY_SAMPLES - 2 if stage == "criteria"
                       else 0)


@pytest.mark.parametrize("system", ["reduced", "full"])
def test_field_not_finite_near_the_origin_fails_the_probes_stage(tmp_path, monkeypatch,
                                                                 system):
    # the plan evaluates radii before the first step; the failure still
    # exits 3 with one line naming a radius where the field is not finite
    r0 = 1e-3
    field = family_from_descriptor(builtin_families()["oscillatory_log"])
    holed = dataclasses.replace(field, a=lambda x, y: np.where(
        np.hypot(x, y) < r0, np.nan, field.a(x, y)))
    monkeypatch.setattr(cli.coeff, "family_from_descriptor", lambda desc: holed)
    code, err = _main_exit(tmp_path, minimal_config(
        analyses=["probes"], probes={"system": system, "s_grid": [0.0, 2.0],
                                     "t_max": 12.0}))
    assert code == 3
    assert "Traceback" not in err
    line, = err.strip().splitlines()
    assert line.startswith("stage probes failed: coefficient a not finite at r=")
    assert float(line.split("r=")[1].split(",")[0]) < r0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert line.endswith(report["results"]["probes"]["error"].split(": ", 1)[1])


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
