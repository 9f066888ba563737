"""Build reference.json, the drift reference of the correctness gate.

    PYTHONPATH=src python3 bench/make_reference.py

Runs every operation any seed can produce once as is, storing the numeric
fields under "results", and once with rounding-level noise on the
coefficient values and the circle moments (a few ulps, as a reordered
sum would give).  Fields that this noise moves by more than ROUNDING_LIMIT
are rounding-dominated: the gate records but does not compare them.
Run it only when the benchmark's workloads change, never to absorb a drift.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import gate
import workloads
from run import PINNED_THREADS, source_commit

ROUNDING_LIMIT = 1e-9
NOISE = 4e-16


def _results(cli, op, out_dir) -> dict:
    report, code = cli.run_pipeline(cli.validate_config(op.config), out_dir)
    if code != 0:
        raise SystemExit(f"{op.key}: exit code {code}")
    return gate.numeric_fields(report["results"])


def _add_rounding_noise(coeff, moments, dynsys, criteria):
    rng = np.random.default_rng(0)

    def jitter(values):
        values = np.asarray(values, dtype=float)
        return values * (1.0 + NOISE * rng.choice([-1.0, 1.0], values.shape))

    coefficients = coeff.CoefficientField.coefficients

    def noisy_coefficients(self, x, y):
        return tuple(jitter(v) for v in coefficients(self, x, y))

    coeff.CoefficientField.coefficients = noisy_coefficients
    moment_vector = moments.moment_vector

    def noisy_moment_vector(field, r, quad=moments.DEFAULT_QUADRATURE):
        m = moment_vector(field, r, quad)
        return moments.MomentVector(m.r, *map(float, jitter(m.as_array())))

    for module in (moments, dynsys, criteria):
        module.moment_vector = noisy_moment_vector
    converged = moments._converged_tables

    def noisy_converged_tables(field, r, quad):
        m6, tabs = converged(field, r, quad)
        return jitter(m6), tuple(jitter(t) for t in tabs)

    moments._converged_tables = noisy_converged_tables


def main() -> int:
    for var in PINNED_THREADS:
        if os.environ.get(var) != "1":
            raise SystemExit(f"set {var}=1 (and the other pinned thread variables)")
    from regan import cli, coeff, criteria, dynsys, moments

    root = Path.cwd()
    work = root / ".bench_work" / "reference"
    ops = workloads.reference_operations()
    plain = {}
    for op in ops:
        plain[op.key] = _results(cli, op, work / "plain" / op.key.replace("/", "__"))
        print(op.key, len(plain[op.key]), "fields", flush=True)
    _add_rounding_noise(coeff, moments, dynsys, criteria)
    entries = {}
    for op in ops:
        noisy = _results(cli, op, work / "noisy" / op.key.replace("/", "__"))
        values = plain[op.key]
        dominated = sorted(
            path for path, ref in values.items()
            if path not in noisy
            or abs(noisy[path] - ref) / max(1.0, abs(ref)) > ROUNDING_LIMIT)
        entries[op.key] = {"values": values, "rounding_dominated": dominated}
        print(op.key, len(dominated), "rounding-dominated", flush=True)
    reference = {"commit": source_commit(root), "tolerance": gate.TOLERANCE,
                 "rounding_limit": ROUNDING_LIMIT, "ops": entries}
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
