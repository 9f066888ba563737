"""Analytic sufficient conditions on the moment drift matrix.

Four checks, all phrased in the log-radius variable t = -log r on dyadic
windows and reported three-valued with witness tables:

* dini_R:            integral of |R| dt converges
* eigenvalue_bound:  window integrals of the top eigenvalue of the
                     symmetrized drift stay bounded above
* iterated_L1:       integral of |R(t) * int_t^inf R| dt converges
* special_*:         when the b- and c-moments vanish the system is driven
                     by the two a-moments alone; boundedness/convergence of
                     their prefix integrals is tested separately

Each series reads the drift matrix R(t) from a system with one
`matrices(ts)` call on all of its nodes: the (windows x 32) Gauss-Legendre
grid of dini_R, of eigenvalue_bound and of each a-moment series of the
decoupled case, and the trapezoid grid of iterated_L1.  A
`dynsys.ReducedSystem` evaluates the new radii of such a call in a few
large batches.  The decoupled case also reads the b- and c-moments off R
through `matrix(t)` at its applicability samples.
`run_all_criteria` passes one reduced system to all four checks, so every
radius is evaluated once.

Criteria are sufficient, not necessary: a failed criterion never refutes
stability, and the report notes when probes and criteria disagree.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import tails
from .dynsys import ReducedSystem
from .moments import MOMENT_POSITIONS
from .moments import moment_vector  # noqa: F401 - bench/tracer.py patches it here
from .tails import CONVERGED, DIVERGED, FAILS, HOLDS, INCONCLUSIVE, LN2

SECOND_ORDER = "second_order_differentiable"
LIPSCHITZ = "lipschitz_gradient"
NONE = "none"

_VERDICT_FROM_TAIL = {CONVERGED: HOLDS, DIVERGED: FAILS, INCONCLUSIVE: INCONCLUSIVE}


@dataclass
class CriterionResult:
    id: str
    verdict: str                       # holds / fails / inconclusive
    implied_conclusion: str = NONE
    flags: tuple = ()
    witness: dict = dc_field(default_factory=dict)


TOL = 0.05                     # tail-estimate tolerance for convergence
GROUP = 4                      # window aggregation against oscillation
APPLICABILITY_TOL = 1e-10      # largest b- or c-moment of the decoupled case
APPLICABILITY_SAMPLES = 33


def _window_sums_of(system, fn, n_windows: int) -> np.ndarray:
    """Window integrals of fn(R stack) -> values, from one `matrices` call
    on the nodes of all windows."""
    # contiguous values: np.dot sums a strided vector in another order
    return tails.dyadic_window_sums(
        lambda ts: np.ascontiguousarray(fn(system.matrices(ts))), n_windows)


def _prefix_floor(prefix: np.ndarray) -> float:
    """The rounding floor of a prefix test: 1e-11 relative to 1 + max |prefix|."""
    return 1e-11 * (1.0 + float(np.max(np.abs(prefix))))


def check_dini_integrability(system, n_windows: int = 80) -> CriterionResult:
    """Criterion dini_R: the drift matrix is integrable against dr/r.

    Equivalently integral over t of the max-entry norm of R(t).  Holding
    implies the full conclusion (second-order differentiability).
    """
    sums = _window_sums_of(system, lambda Rs: np.max(np.abs(Rs), axis=(1, 2)),
                           n_windows)
    analysis = tails.analyze_sums(tails.group_sums(sums, GROUP), TOL)
    verdict = _VERDICT_FROM_TAIL[analysis.verdict]
    return CriterionResult(
        id="dini_R",
        verdict=verdict,
        implied_conclusion=SECOND_ORDER if verdict == HOLDS else NONE,
        witness={"integral": analysis.as_dict(), "norm": "max-abs entry",
                 "group": GROUP},
    )


def check_symmetric_part_bound(system, prefix_windows: int = 120) -> CriterionResult:
    """Criterion eigenvalue_bound: window integrals of mu(-(R+R^T)/2) stay bounded.

    The running sup over all dyadic window pairs of the integral must
    stabilize below a finite bound; the measured bound is recorded.
    Holding implies a Lipschitz gradient.
    """
    def mu(Rs: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(-0.5 * (Rs + np.swapaxes(Rs, 1, 2)))[:, -1]

    sums = _window_sums_of(system, mu, prefix_windows)
    prefix = tails.prefix_from_sums(sums)
    # sup over window pairs [r1, r2] of the integral = prefix drawup;
    # upward escape is drawdown of the mirrored prefix
    mirrored = tails.lower_bound_verdict(-prefix, _prefix_floor(prefix))
    drawup = float(np.max(prefix - np.minimum.accumulate(prefix)))
    return CriterionResult(
        id="eigenvalue_bound",
        verdict=mirrored.verdict,
        implied_conclusion=LIPSCHITZ if mirrored.verdict == HOLDS else NONE,
        witness={"running_sup": drawup, "prefix": prefix.tolist(),
                 **mirrored.witness},
    )


def check_iterated_integral(system, n_windows: int = 80) -> CriterionResult:
    """Criterion iterated_L1: |R(t) * int_t^inf R dtau| integrable in t.

    The inner integral is the r-form integral of R against dr/r from 0 to
    r; its value at the smallest node is extrapolated as the mean of the
    prefix over the last index group.  A divergent inner integral flags
    the result inconclusive.
    """
    nodes_per_window = 16
    n_nodes = n_windows * nodes_per_window + 1
    t_grid = np.linspace(0.0, n_windows * LN2, n_nodes)
    R_grid = system.matrices(t_grid)

    dt = t_grid[1] - t_grid[0]
    increments = 0.5 * dt * (R_grid[1:] + R_grid[:-1])
    prefix = np.concatenate([np.zeros((1, 4, 4)), np.cumsum(increments, axis=0)])

    # convergence of the inner integral, entry by entry via the six moments
    inner_divergent = False
    for i, j in MOMENT_POSITIONS:
        entry_prefix = prefix[:, i, j]
        scale = _prefix_floor(entry_prefix)
        sub = entry_prefix[::nodes_per_window]
        if tails.bounded_oscillation_verdict(sub, scale).verdict == FAILS:
            inner_divergent = True
            break
    if inner_divergent:
        return CriterionResult(
            id="iterated_L1", verdict=INCONCLUSIVE, flags=("inner_divergent",),
            witness={"note": "inner integral of R dr/r diverges at 0"},
        )

    limit = prefix[-(n_nodes // 4):].mean(axis=0)
    inner = limit[None, :, :] - prefix
    f_vals = np.max(np.abs(R_grid @ inner), axis=(1, 2))
    f_prefix = np.concatenate([[0.0], np.cumsum(0.5 * dt * (f_vals[1:] + f_vals[:-1]))])
    boundary = f_prefix[::nodes_per_window]
    sums = np.diff(boundary)
    analysis = tails.analyze_sums(tails.group_sums(sums, GROUP), TOL)
    verdict = _VERDICT_FROM_TAIL[analysis.verdict]
    return CriterionResult(
        id="iterated_L1",
        verdict=verdict,
        implied_conclusion=SECOND_ORDER if verdict == HOLDS else NONE,
        witness={"integral": analysis.as_dict(),
                 "inner_limit_maxabs": float(np.max(np.abs(limit)))},
    )


def check_decoupled_case(system, prefix_windows: int = 120) -> list[CriterionResult]:
    """Decoupled special case: all b- and c-moments vanish.

    Then the system reduces to scalar integrating-factor equations in the
    two a-moments.  Four sub-criteria:

    * special_a1_bounded:   |int_s^t a1| bounded for large s < t
    * special_a2_lower:     int_s^t a2 bounded below
    * special_a1_converges: int^inf a1 converges to a finite limit
    * special_a2_extended:  int^inf a2 converges to an extended real > -inf

    The first two together give a Lipschitz gradient; all four give
    second-order differentiability.  When the case does not apply a single
    inconclusive result carries the flag not_applicable.
    """
    t_samples = np.linspace(0.0, (prefix_windows - 1) * LN2, APPLICABILITY_SAMPLES)
    worst = 0.0
    for t in t_samples:
        R = system.matrix(t)   # b1, b2, c1, c2 follow a1, a2
        worst = max(worst, *(abs(float(R[ij])) for ij in MOMENT_POSITIONS[2:]))
    if worst > APPLICABILITY_TOL:
        return [CriterionResult(
            id="special_case", verdict=INCONCLUSIVE, flags=("not_applicable",),
            witness={"max_bc_moment": worst},
        )]

    prefixes = [tails.prefix_from_sums(_window_sums_of(
        system, lambda Rs: Rs[:, i, j], prefix_windows))
        for i, j in MOMENT_POSITIONS[:2]]
    floor0, floor1 = map(_prefix_floor, prefixes)

    bounded = tails.bounded_oscillation_verdict(prefixes[0], floor0)
    lower = tails.lower_bound_verdict(prefixes[1], floor1)
    extended = tails.extended_lower_verdict(prefixes[1], floor1)

    stable_part = bounded.verdict == HOLDS and lower.verdict == HOLDS
    # convergence of int a1 is judged by the same bounded-oscillation test
    # as its boundedness, so special_a1_converges shares that verdict
    full_part = stable_part and extended.verdict == HOLDS
    return [
        CriterionResult("special_a1_bounded", bounded.verdict,
                        LIPSCHITZ if stable_part else NONE, (), bounded.witness),
        CriterionResult("special_a2_lower", lower.verdict,
                        LIPSCHITZ if stable_part else NONE, (), lower.witness),
        CriterionResult("special_a1_converges", bounded.verdict,
                        SECOND_ORDER if full_part else NONE, (), bounded.witness),
        CriterionResult("special_a2_extended", extended.verdict,
                        SECOND_ORDER if full_part else NONE, (), extended.witness),
    ]


def run_all_criteria(system: ReducedSystem, n_windows: int = 80,
                     prefix_windows: int = 120) -> list[CriterionResult]:
    """All four criteria on one shared reduced system: n_windows dyadic
    windows for the nonnegative integrands, prefix_windows for the signed
    prefix tests."""
    return [
        check_dini_integrability(system, n_windows),
        check_symmetric_part_bound(system, prefix_windows),
        check_iterated_integral(system, n_windows),
        *check_decoupled_case(system, prefix_windows),
    ]


def criteria_conclusion(results) -> str:
    """Headline conclusion implied by the criteria (they take precedence)."""
    implied = {r.implied_conclusion for r in results}
    if SECOND_ORDER in implied:
        return SECOND_ORDER
    if LIPSCHITZ in implied:
        return LIPSCHITZ
    return NONE
