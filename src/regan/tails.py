"""Dyadic-window analysis of improper integrals near r = 0.

Everything works in the log-radius variable t = -log r, where the dyadic
radius window (2^{-k-1}, 2^{-k}) becomes the uniform t-window
[k log 2, (k+1) log 2].  Window integrals of a nonnegative integrand are
classified by trend to decide whether the tail of the improper integral
converges: the later windows are fit both as a geometric series and as a
power law, and the model with the smaller residual extrapolates the tail.
Signed integrands are handled through their prefix function: boundedness
and convergence verdicts come from the decay of prefix oscillation over
geometrically growing index groups, and only a drift of one sign makes a
prefix escape.

Convergence of an improper integral is not decidable from finitely many
samples.  The rules here are heuristics, `inconclusive` is a first-class
verdict, and every verdict ships with its witness table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LN2 = math.log(2.0)

CONVERGED = "converged"
DIVERGED = "diverged"
INCONCLUSIVE = "inconclusive"

HOLDS = "holds"
FAILS = "fails"

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

# `analyze_sums`: the largest fitted ratio read as geometric decay, the margin
# above p = 1 a power law needs to converge, and the fewest windows judged
Q_GEOMETRIC = 0.88
P_MARGIN = 0.10
MIN_WINDOWS = 4

# `geometric_group_bounds`: the first prefix index and the growth factor
GROUP_START = 4
GROUP_FACTOR = 1.4


class EvaluationError(RuntimeError):
    """An integrand could not be evaluated (non-finite or raising)."""


def window_nodes(bounds):
    """(mids, halves, ts) of the windows [a, b] of bounds: the midpoints,
    the half widths and the Gauss-Legendre node times mid + half * _GL_NODES,
    one row of ts per window."""
    mids = np.array([0.5 * (a + b) for a, b in bounds])
    halves = np.array([0.5 * (b - a) for a, b in bounds])
    return mids, halves, mids[:, None] + halves[:, None] * _GL_NODES


def _gauss_legendre_sums(f, bounds) -> np.ndarray:
    """Gauss-Legendre integrals of a vectorized f over the windows [a, b] of
    bounds, from one call of f on all their nodes.

    The nodes of a window are its `window_nodes`, as they are for the
    window alone, and each window is summed by its own np.dot over its row
    of values, so every integral is bit for bit that of its window alone.
    EvaluationError names the first node, window by window, whose value is
    not finite.
    """
    _, halves, ts = window_nodes(bounds)
    vals = np.asarray(f(ts.ravel()), dtype=float)
    if vals.shape != (ts.size,):
        vals = np.broadcast_to(vals, (ts.size,))
    if not np.all(np.isfinite(vals)):
        t_bad = float(ts.ravel()[~np.isfinite(vals)][0])
        raise EvaluationError(
            f"integrand not finite at t={t_bad:.6g} (radius r={math.exp(-t_bad):.6g})"
        )
    rows = vals.reshape(ts.shape)
    return np.array([float(half * np.dot(_GL_WEIGHTS, row))
                     for half, row in zip(halves.tolist(), rows)])


def window_integral(f, a: float, b: float) -> float:
    """Gauss-Legendre integral of a vectorized integrand over [a, b]: the
    one-window case of `dyadic_window_sums`."""
    return float(_gauss_legendre_sums(f, [(a, b)])[0])


def dyadic_window_sums(f, n_windows: int) -> np.ndarray:
    """Integrals of f(t) over the t-windows [k log2, (k+1) log2], k=0..n-1,
    from one call of f on the (n_windows x 32) Gauss-Legendre node grid;
    each window's integral is bit for bit its `window_integral`."""
    return _gauss_legendre_sums(
        f, [(k * LN2, (k + 1) * LN2) for k in range(n_windows)])


def group_sums(sums: np.ndarray, group: int) -> np.ndarray:
    """Aggregate consecutive windows (tail truncated to a whole multiple)."""
    s = np.asarray(sums, dtype=float)
    if group <= 1:
        return s
    n = (s.size // group) * group
    return s[:n].reshape(-1, group).sum(axis=1)


@dataclass
class TailAnalysis:
    """Verdict on the tail of a sum of (nonnegative) window integrals."""

    verdict: str
    partial: float
    tail_estimate: float
    total: float
    q_hat: float
    p_hat: float
    sums: np.ndarray = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "partial": self.partial,
            "tail_estimate": self.tail_estimate,
            "total": self.total,
            "q_hat": self.q_hat,
            "p_hat": self.p_hat,
            "window_sums": [float(x) for x in self.sums],
        }


def analyze_sums(sums, tol: float) -> TailAnalysis:
    """Classify the tail of a series of nonnegative window sums.

    Over the later windows, log s_k is fit against k (geometric decay) and
    against log(k+1) (power law s_k ~ (k+1)^(-p)).  The geometric model is
    taken when its residual is the smaller one and its fitted ratio is at
    most Q_GEOMETRIC, which is only a ceiling: 1/k-type sums fit a ratio
    below it at short horizons, but the power law fits them better.  The
    geometric model gets the exact geometric tail; otherwise p below
    1 + P_MARGIN is declared divergent.  A series whose ratios agree to
    1e-9 keeps its exact ratio without a fit, so pure power-law moduli,
    geometric in the windows, are reproduced exactly (the oracle tests rely
    on this).
    """
    s = np.asarray(sums, dtype=float)
    n = s.size
    partial = math.fsum(map(float, s))
    peak = float(np.max(np.abs(s))) if n else 0.0
    floor = 1e-15 * max(1.0, peak)
    if n == 0 or peak <= floor:
        return TailAnalysis(CONVERGED, partial, 0.0, partial, 0.0, math.inf, s)
    if np.all(np.abs(s[-3:]) <= floor):
        # integrand already decayed to numerical zero
        return TailAnalysis(CONVERGED, partial, 0.0, partial, 0.0, math.inf, s)
    if n < MIN_WINDOWS:
        return TailAnalysis(INCONCLUSIVE, partial, math.nan, math.nan, math.nan, math.nan, s)

    meaningful = np.nonzero(s > floor)[0]
    pairs = [k for k in meaningful[:-1] if s[k + 1] > floor]
    pairs = pairs[-10:]
    if len(pairs) < 3:
        return TailAnalysis(INCONCLUSIVE, partial, math.nan, math.nan, math.nan, math.nan, s)
    ratios = np.array([s[k + 1] / s[k] for k in pairs])
    q_last = float(ratios[-1])
    geometric_fits = True
    if np.max(np.abs(ratios - q_last)) <= 1e-9 * max(abs(q_last), 1e-30):
        q_hat = q_last  # exactly geometric: keep the exact ratio
    else:
        # least-squares fits over the later windows, robust against the
        # ripple that an oscillatory integrand leaves in single ratios:
        # log s against k (geometric) and against log(k+1) (power law)
        tail_ks = meaningful[meaningful >= max(2, meaningful[-1] // 2)]
        if tail_ks.size >= 3:
            log_s = np.log(s[tail_ks])
            geo, geo_res = np.polyfit(tail_ks, log_s, 1, full=True)[:2]
            _, pow_res = np.polyfit(np.log(tail_ks + 1.0), log_s, 1, full=True)[:2]
            q_hat = float(np.exp(geo[0]))
            geometric_fits = bool(geo_res[0] < pow_res[0])
        else:
            q_hat = float(np.median(ratios))

    if 0.0 < q_hat <= Q_GEOMETRIC and geometric_fits:
        tail = float(s[-1]) * q_hat / (1.0 - q_hat)
        verdict = CONVERGED if tail <= tol else INCONCLUSIVE
        return TailAnalysis(verdict, partial, tail, partial + tail, q_hat, math.nan, s)

    # power-law fit over the later meaningful windows
    lo = max(2, n // 2)
    ks = meaningful[meaningful >= lo]
    if ks.size < 4:
        ks = meaningful[-6:]
    if ks.size < 4:
        return TailAnalysis(INCONCLUSIVE, partial, math.nan, math.nan, q_hat, math.nan, s)
    slope = float(np.polyfit(np.log(ks + 1.0), np.log(s[ks]), 1)[0])
    p_hat = -slope
    if p_hat >= 1.0 + P_MARGIN:
        tail = float(s[-1]) * n / (p_hat - 1.0)
        verdict = CONVERGED if tail <= tol else INCONCLUSIVE
        return TailAnalysis(verdict, partial, tail, partial + tail, q_hat, p_hat, s)
    return TailAnalysis(DIVERGED, partial, math.inf, math.inf, q_hat, p_hat, s)


# ---------------------------------------------------------------------------
# Prefix-function analysis for signed integrands.
# ---------------------------------------------------------------------------


def prefix_from_sums(sums) -> np.ndarray:
    """Prefix values C_j at window boundaries, C_0 = 0."""
    s = np.asarray(sums, dtype=float)
    return np.concatenate([[0.0], np.cumsum(s)])


def geometric_group_bounds(n_boundaries: int):
    """Inclusive index groups [lo, hi] growing geometrically, for tail trends.

    A final group truncated by the data end is dropped: partial groups have
    smaller ranges than their geometric peers and would corrupt trend fits.
    """
    bounds = []
    lo = GROUP_START
    while lo < n_boundaries - 1:
        hi = max(lo + 2, int(math.ceil(lo * GROUP_FACTOR)))
        if hi > n_boundaries - 1:
            break
        bounds.append((lo, hi))
        lo = hi
    return bounds


@dataclass
class PrefixVerdict:
    """Verdict plus witness table for a prefix-function trend test."""

    verdict: str
    witness: dict


def _range_tables(C: np.ndarray, bounds):
    ranges, drifts = [], []
    for lo, hi in bounds:
        seg = C[lo : hi + 1]
        ranges.append(float(seg.max() - seg.min()))
        drifts.append(float(C[hi] - C[lo]))
    return np.array(ranges), np.array(drifts)


def bounded_oscillation_verdict(C, abs_floor: float) -> PrefixVerdict:
    """Does the prefix function settle (Cauchy tail) or escape?

    `holds` is certified by summable group ranges (geometric or power > 1
    decay), which implies both boundedness and convergence of the prefix;
    `fails` by a persistent net drift: the group drifts |C(hi) - C(lo)|
    trend divergent, dominate the group ranges (median ratio above 1/2),
    and the last three drifts share one sign beyond `abs_floor`.  A drift
    that changes sign can cancel, as for int cos t/(1+t) dt, so the ranges
    decide instead; the witness records the sign test as
    `drift_persistent`.  A bounded but non-settling oscillation comes out
    inconclusive, so the same test serves the bounded-oscillation and the
    convergence question (they differ only on cases this heuristic cannot
    separate).
    """
    C = np.asarray(C, dtype=float)
    bounds = geometric_group_bounds(C.size)
    if len(bounds) < 4:
        return PrefixVerdict(INCONCLUSIVE, {"reason": "too few groups"})
    ranges, drifts = _range_tables(C, bounds)
    witness = {
        "groups": [[int(lo), int(hi)] for lo, hi in bounds],
        "ranges": ranges.tolist(),
        "drifts": drifts.tolist(),
    }
    if np.all(ranges <= abs_floor):
        witness["reason"] = "ranges below floor"
        return PrefixVerdict(HOLDS, witness)
    drift_abs = np.abs(drifts)
    active = ranges > abs_floor
    dominance = float(np.median(drift_abs[active] / ranges[active])) if active.any() else 0.0
    drift_trend = analyze_sums(drift_abs, math.inf)
    trailing = drifts[-3:]
    persistent = bool(np.all(trailing > abs_floor) or np.all(trailing < -abs_floor))
    witness["drift_dominance"] = dominance
    witness["drift_trend"] = drift_trend.verdict
    witness["drift_persistent"] = persistent
    if drift_trend.verdict == DIVERGED and dominance > 0.5 and persistent:
        return PrefixVerdict(FAILS, witness)
    range_trend = analyze_sums(ranges, math.inf)
    witness["range_trend"] = range_trend.verdict
    witness["range_tail"] = range_trend.tail_estimate
    if range_trend.verdict == CONVERGED:
        return PrefixVerdict(HOLDS, witness)
    return PrefixVerdict(INCONCLUSIVE, witness)


def lower_bound_verdict(C, abs_floor: float) -> PrefixVerdict:
    """Is the prefix function bounded below on tails (drawdown stabilizes)?"""
    C = np.asarray(C, dtype=float)
    bounds = geometric_group_bounds(C.size)
    if len(bounds) < 4:
        return PrefixVerdict(INCONCLUSIVE, {"reason": "too few groups"})
    drawdown = np.maximum.accumulate(C) - C
    peaks = np.array([float(drawdown[lo : hi + 1].max()) for lo, hi in bounds])
    running = np.maximum.accumulate(peaks)
    increments = np.diff(np.concatenate([[0.0], running]))
    witness = {
        "groups": [[int(lo), int(hi)] for lo, hi in bounds],
        "drawdown_peaks": peaks.tolist(),
        "drawdown_running_max": running.tolist(),
    }
    if np.all(increments <= abs_floor):
        return PrefixVerdict(HOLDS, witness)
    trend = analyze_sums(increments, math.inf)
    witness["increment_trend"] = trend.verdict
    if trend.verdict == DIVERGED:
        return PrefixVerdict(FAILS, witness)
    if trend.verdict == CONVERGED:
        return PrefixVerdict(HOLDS, witness)
    return PrefixVerdict(INCONCLUSIVE, witness)


def extended_lower_verdict(C, abs_floor: float) -> PrefixVerdict:
    """Convergence to an extended real above -infinity.

    Accepts a settling prefix and a persistent climb to +infinity; rejects
    an unbounded decline; leaves bounded non-settling oscillation open.
    """
    C = np.asarray(C, dtype=float)
    settled = bounded_oscillation_verdict(C, abs_floor)
    if settled.verdict == HOLDS:
        return PrefixVerdict(HOLDS, {"mode": "converges", **settled.witness})
    lower = lower_bound_verdict(C, abs_floor)
    if lower.verdict == FAILS:
        return PrefixVerdict(FAILS, {"mode": "declines", **lower.witness})
    if lower.verdict == HOLDS:
        bounds = geometric_group_bounds(C.size)
        _, drifts = _range_tables(C, bounds)
        up = np.clip(drifts, 0.0, None)
        trend = analyze_sums(up, math.inf)
        if trend.verdict == DIVERGED and np.all(drifts[-3:] > -abs_floor):
            return PrefixVerdict(HOLDS, {"mode": "diverges to +inf", **lower.witness})
    return PrefixVerdict(INCONCLUSIVE, {"mode": "unsettled", **lower.witness})
