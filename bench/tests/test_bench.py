"""Self-check of the benchmark.

    python3 -m pytest bench/tests

A smoke pass (tiny configs) must print every metric BENCHMARK.json declares,
with its unit; the tracer must put every wrapped function back; the traced
layer self times must account for the traced wall time; the gate must fail
horizon flips and drifts.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from regan import cli, coeff, criteria, dynsys, moments, pdelab, tails  # noqa: E402

MODULES = (coeff, criteria, dynsys, moments, pdelab, tails)


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_pass_emits_every_declared_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "full_compare", "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared(kind)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _snapshot() -> dict:
    snap = {}
    for module in MODULES:
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snap[(module.__name__, name, attr)] = member
    return snap


def test_wrappers_are_removed_after_tracing():
    before = _snapshot()
    undo = tracer.install(tracer.Tracer())
    during = _snapshot()
    changed = {key for key in before if during[key] is not before[key]}
    assert {("regan.moments", "moment_vector"), ("regan.dynsys", "moment_vector"),
            ("regan.criteria", "moment_vector"), ("regan.pdelab", "propagate_dense"),
            ("regan.coeff", "CoefficientField", "coefficients")} <= changed
    tracer.uninstall(undo)
    after = _snapshot()
    assert all(after[key] is before[key] for key in before)


def test_layer_self_times_account_for_traced_wall(tmp_path):
    op = next(o for o in workloads.operations("full_compare", 1, smoke=True)
              if o.family == "oscillatory_log")
    config = cli.validate_config(op.config)
    trace = tracer.Tracer()
    undo = tracer.install(trace)
    try:
        start = time.perf_counter()
        frame = trace.enter("cli.run_pipeline")
        report, code = cli.run_pipeline(config, tmp_path)
        trace.exit(frame)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall(undo)
    assert code == 0
    metrics = trace.metrics(report["timings"], wall)
    assert 0.95 <= metrics["trace.accounted_share"][0] <= 1.0
    assert metrics["moments.moment_vector.calls"][0] > 0
    assert metrics["moments.block_table.calls"][0] > 0
    assert metrics["pdelab.unknowns"][0] == 2 * 87**2   # two solves at h = 2^-6
    assert metrics["moments.points_per_radius"][0] >= 32
    assert 0.0 < metrics["moments.node_yield"][0] < 1.0
    assert 0.0 < metrics["dynsys.matrix_cache_hit_ratio"][0] < 1.0
    assert 0.0 < metrics["criteria.R_unique_ratio"][0] <= 1.0
    assert None not in trace.spans  # every span was closed


def _outcome(family, variant, criteria_verdicts):
    out = gate.Outcome(f"w/{family}/{variant}", family, variant, 1.0)
    out.criteria = criteria_verdicts
    return out


def test_gate_fails_horizon_flips_but_not_agreement():
    outcomes = [_outcome("a", "default", {"dini_R": "fails", "iterated_L1": "holds"}),
                _outcome("a", "half", {"dini_R": "inconclusive", "iterated_L1": "holds"}),
                _outcome("b", "default", {"dini_R": "holds"}),
                _outcome("b", "half", {"dini_R": "holds"})]
    gate.check_horizon_flips(outcomes)
    assert [o.failed for o in outcomes] == [False, True, False, False]
    assert outcomes[1].failed and not outcomes[1].wrong


def test_gate_drift_and_digits():
    entry = {"values": {"/x": 2.0, "/y/0": 0.5, "/noise": 1.0},
             "rounding_dominated": ["/noise"]}
    assert gate.max_deviation({"x": 2.0, "y": [0.5], "noise": 9.0}, entry) == 0.0
    assert gate.max_deviation({"x": 2.0 + 4e-6, "y": [0.5]}, entry) == pytest.approx(2e-6)
    assert gate.max_deviation({"x": 2.0}, entry) == math.inf
    exact = _outcome("a", "default", {})
    exact.max_dev = 0.0
    drifted = _outcome("a", "default", {})
    drifted.max_dev = 1e-9
    assert gate.report_digits([exact]) == gate.DIGITS_CAP
    assert gate.report_digits([exact, drifted]) == pytest.approx(9.0)
