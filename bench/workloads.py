"""Workload definitions: which `regan run` configs one pass executes.

A workload is a list of operations; each operation is one `run_pipeline`
call on one config.  The benchmark seed only decides which `trig_random`
descriptor a pass uses and the order of the operations; the program sees
nothing but the resulting config dicts.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

SECOND_ORDER = "second_order_differentiable"
NO_GUARANTEE = "no_guarantee"
STABLE = "stable"
UNSTABLE = "unstable"

# Expected verdicts come from the theory of each family and from the tier-1
# tests, not from the program's output: the four families with a Dini or
# oscillation-cancelling drift are second-order differentiable and their
# probes stable; log_inverse(0.4) on a is square-Dini only and unstable.
# trig_random has no known verdict and is not listed.
EXPECTED = {
    "constant": (SECOND_ORDER, STABLE),
    "dini_power": (SECOND_ORDER, STABLE),
    "radial_log": (SECOND_ORDER, STABLE),
    "oscillatory_log": (SECOND_ORDER, STABLE),
    "square_dini_log": (NO_GUARANTEE, UNSTABLE),
}

# The descriptors of `regan families` at the time the benchmark was defined,
# fixed here so that the benchmark's inputs cannot change with the program.
BUILTIN = {
    "constant": {"family": "constant"},
    "dini_power": {"family": "harmonic", "target": "a",
                   "profile": {"kind": "power", "gamma": 0.3, "alpha": 0.5},
                   "mode": 2, "phase": 0.0},
    "square_dini_log": {"family": "harmonic", "target": "a",
                        "profile": {"kind": "log_inverse", "gamma": 0.4},
                        "mode": 2, "phase": 0.0},
    "oscillatory_log": {"family": "harmonic", "target": "a",
                        "profile": {"kind": "log_oscillatory", "gamma": 0.4,
                                    "eta": 1.0},
                        "mode": 2, "phase": 0.0},
    "radial_log": {"family": "radial", "target": "a",
                   "profile": {"kind": "log_inverse", "gamma": 0.4}},
}

# The seed draws the trig_random descriptor from this pool; the stored drift
# reference covers every entry.
TRIG_POOL = tuple(range(8))

ALL_STAGES = ("validate", "moments", "probes", "criteria", "pde", "compare")
HALF_HORIZON = {"n_windows": 40, "prefix_windows": 60}

WORKLOADS = ("families_reduced", "full_compare", "pde_fine")


@dataclass(frozen=True)
class Operation:
    key: str            # "<workload>/<family>/<variant>", the reference key
    family: str         # builtin name, or "trig_random"
    variant: str        # "default", "half" (families_reduced) or the workload's
    config: dict


def trig_seed(seed: int) -> int:
    return random.Random(seed).choice(TRIG_POOL)


def _families_reduced(smoke: bool):
    ops = []
    for name, desc in BUILTIN.items():
        default = {"schema": 1, "family": desc}
        half = {"schema": 1, "family": desc, "analyses": ["criteria"],
                "criteria": dict(HALF_HORIZON)}
        if smoke:
            default["probes"] = {"s_grid": [0.0, 1.0], "t_max": 4.0}
            default["criteria"] = {"n_windows": 16, "prefix_windows": 24}
            half["criteria"] = {"n_windows": 8, "prefix_windows": 12}
        ops.append((name, "default", default))
        ops.append((name, "half", half))
    return ops


def _full_compare(trig: int, smoke: bool):
    ops = []
    for name, desc in ((f"trig_random-{trig}", {"family": "trig_random", "seed": trig}),
                       ("oscillatory_log", BUILTIN["oscillatory_log"])):
        cfg = {"schema": 1, "family": desc, "analyses": list(ALL_STAGES),
               "probes": {"system": "full"}, "pde": {"h": 2.0**-6}}
        if smoke:
            cfg["probes"].update({"s_grid": [0.0, 1.0], "t_max": 4.0})
            cfg["criteria"] = {"n_windows": 16, "prefix_windows": 24}
        ops.append((name, "full", cfg))
    return ops


def _pde_fine(trig: int, smoke: bool):
    h = 2.0**-6 if smoke else 2.0**-8
    return [(name, "pde", {"schema": 1, "family": desc, "analyses": ["pde"],
                           "pde": {"h": h}})
            for name, desc in (("square_dini_log", BUILTIN["square_dini_log"]),
                               ("oscillatory_log", BUILTIN["oscillatory_log"]),
                               (f"trig_random-{trig}",
                                {"family": "trig_random", "seed": trig}))]


def _operations(workload: str, trig: int, smoke: bool) -> list[Operation]:
    if workload == "families_reduced":
        raw = _families_reduced(smoke)
    elif workload == "full_compare":
        raw = _full_compare(trig, smoke)
    elif workload == "pde_fine":
        raw = _pde_fine(trig, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    suffix = "/smoke" if smoke else ""
    return [Operation(f"{workload}/{name}/{variant}{suffix}",
                      "trig_random" if name.startswith("trig_random") else name,
                      variant, cfg)
            for name, variant, cfg in raw]


def operations(workload: str, seed: int, smoke: bool = False) -> list[Operation]:
    """The operations of one pass, in the seed's order."""
    ops = _operations(workload, trig_seed(seed), smoke)
    random.Random(f"order-{seed}").shuffle(ops)
    return ops


def reference_operations() -> list[Operation]:
    """Every operation any seed can produce, for building the drift reference."""
    ops = {op.key: op for workload in WORKLOADS for trig in TRIG_POOL
           for op in _operations(workload, trig, smoke=False)}
    return [ops[key] for key in sorted(ops)]
