"""The names the benchmark patches in `regan` must stay where it looks.

`bench/tracer.py` wraps module-level functions and methods of the live
modules, and `bench/make_reference.py` patches `moment_vector` (in
`moments`, `dynsys` and `criteria`) and `moments._converged_tables` with
noisy versions.  `bench/accuracy.py` calls `solve_dirichlet`,
`propagate_dense`, `second_harmonic_system`, `moment_vector` and
`block_table` positionally.  A refactor of `src/` that moves or reorders
one of them breaks the benchmark; these tests make it break tier-1 as well.
"""
from __future__ import annotations

import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import accuracy  # noqa: E402
import tracer  # noqa: E402
from regan import cli, coeff, criteria, dynsys, moments, pdelab, tails  # noqa: E402

MODULES = (coeff, criteria, dynsys, moments, pdelab, tails)


def _snapshot() -> dict:
    snap = {}
    for module in MODULES:
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snap[(module.__name__, name, attr)] = member
    return snap


def test_tracer_installs_on_the_live_modules_and_undoes_itself(tmp_path):
    before = _snapshot()
    trace = tracer.Tracer()
    undo = tracer.install(trace)
    try:
        during = _snapshot()
        config = cli.validate_config({
            "schema": 1, "family": {"family": "constant"},
            "analyses": ["criteria"],
            "criteria": {"n_windows": 8, "prefix_windows": 12}})
        _, code = cli.run_pipeline(config, tmp_path)
    finally:
        tracer.uninstall(undo)
    assert code == 0
    changed = {key for key in before if during[key] is not before[key]}
    assert {("regan.moments", "moment_vector"), ("regan.dynsys", "moment_vector"),
            ("regan.criteria", "moment_vector"), ("regan.dynsys", "block_table"),
            ("regan.moments", "write_moment_csv"),
            ("regan.pdelab", "solve_dirichlet"),
            ("regan.coeff", "CoefficientField", "coefficients")} <= changed
    # the decoupled criterion still reads single radii through moment_vector
    assert trace.calls["moments.moment_vector"] > 0
    after = _snapshot()
    assert all(after[key] is before[key] for key in before)


def test_names_of_the_reference_noise_hook_exist():
    for module in (moments, dynsys, criteria):
        assert vars(module)["moment_vector"] is moments.moment_vector
    assert list(inspect.signature(moments.moment_vector).parameters) == [
        "field", "r", "quad"]
    assert list(inspect.signature(moments._converged_tables).parameters) == [
        "field", "r", "quad"]
    m6, tabs = moments._converged_tables(coeff.constant_laplacian(), 0.5,
                                         moments.DEFAULT_QUADRATURE)
    assert m6.shape == (6,) and len(tabs) == 8


def test_accuracy_probes_run_and_stay_accurate():
    # the closed-form errors of the benchmark's accuracy layer, with margin
    # over the measured 5e-16, 7e-13 and 5.6e-16
    errors = accuracy.all_probes()
    assert errors["moments.closed_form_err"] <= 1e-13
    assert errors["dynsys.closed_form_err"] <= 1e-9
    assert errors["pdelab.control_err"] <= 1e-12
