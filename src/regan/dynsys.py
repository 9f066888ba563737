"""Radius-indexed linear systems in the log-radius variable and their probes.

Two systems are built from a coefficient field, both functions of
t = -log r:

* the reduced 4x4 system  phi' + R(t) phi = 0  whose drift matrix collects
  the second-harmonic circle moments of the coefficients;
* the exact 8x8 system in (V, U) obtained by eliminating the circle-mean
  derivative from the radial balance equations, with constant part
  M_inf = [[-I, 2I], [I/2, -I]] and remainder split M = M_inf + S1 + S2.

Fundamental matrices are propagated with an adaptive Dormand-Prince 5(4)
pair, which hands the six stage times of each step to the system's
`prefetch` before it evaluates the stages.  Uniform stability and
asymptotic constancy are probed on a finite horizon with trend
extrapolation (heuristic verdicts, thresholds recorded in the report).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from .coeff import CoefficientField
from .moments import (DEFAULT_QUADRATURE, MomentVector, QuadratureSettings,
                      block_table, moment_matrix, moment_vector, moment_vectors)

STABLE = "stable"
UNSTABLE = "unstable"
CONSTANT = "constant"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"


class SingularSystemError(RuntimeError):
    """A quadrature block that must be inverted was singular."""


class StepUnderflowError(RuntimeError):
    """The adaptive integrator could not make progress."""


class _PointwiseSystem:
    """`prefetch` and `matrices` for a system evaluated one t at a time."""

    def prefetch(self, ts) -> None:
        pass

    def matrices(self, ts) -> np.ndarray:
        return np.array([self.matrix(t) for t in ts])


class MatrixSystem(_PointwiseSystem):
    """A linear system y' + K(t) y = 0 given by an explicit matrix callable."""

    def __init__(self, dim: int, matrix_fn: Callable[[float], np.ndarray],
                 eps_fn: Optional[Callable[[float], float]] = None,
                 label: str = "matrix system"):
        self.dim = dim
        self._fn = matrix_fn
        self._eps = eps_fn
        self.label = label

    def matrix(self, t: float) -> np.ndarray:
        return np.asarray(self._fn(t), dtype=float)

    def eps(self, t: float) -> float:
        return float(self._eps(t)) if self._eps is not None else math.nan


class ReducedSystem:
    """t -> six second-harmonic moments and 4x4 drift matrix R(t) at r = e^-t.

    This is the one path from a field to R(t): the probes and every
    criterion read `matrix`, `matrices` and `moments` of a shared instance,
    which evaluates each radius once and memoises the pair.  `prefetch(ts)`
    evaluates the uncached radii of a whole grid in one `moment_vectors`
    batch (chunked there); a single uncached t goes through `moment_vector`.
    `work` counts the radii evaluated and those that hit the node cap.
    """

    dim = 4

    def __init__(self, field: CoefficientField,
                 quad: QuadratureSettings = DEFAULT_QUADRATURE):
        self.field = field
        self.quad = quad
        self._cache: dict[float, tuple[MomentVector, np.ndarray]] = {}
        self.work = {"radii": 0, "cap_hits": 0}

    def _store(self, m: MomentVector) -> tuple[MomentVector, np.ndarray]:
        self.work["radii"] += 1
        self.work["cap_hits"] += int(m.capped)
        got = self._cache[m.r] = (m, moment_matrix(m))
        return got

    def _at(self, t: float) -> tuple[MomentVector, np.ndarray]:
        r = min(1.0, math.exp(-t))
        got = self._cache.get(r)
        if got is None:
            got = self._store(moment_vector(self.field, r, self.quad))
        return got

    def prefetch(self, ts) -> None:
        """Evaluate the radii min(1, e^-t) of ts that are not cached, in one batch."""
        radii = [r for r in dict.fromkeys(min(1.0, math.exp(-t)) for t in ts)
                 if r not in self._cache]
        if radii:
            m6, capped = moment_vectors(self.field, radii, self.quad)
            for r, row, cap in zip(radii, m6, capped):
                self._store(MomentVector(r, *map(float, row), capped=bool(cap)))

    def matrices(self, ts) -> np.ndarray:
        """The stack of R(t) over ts, shape (len(ts), 4, 4)."""
        self.prefetch(ts)
        return np.array([self._at(t)[1] for t in ts])

    def moments(self, t: float) -> MomentVector:
        return self._at(t)[0]

    def matrix(self, t: float) -> np.ndarray:
        return self._at(t)[1]

    def eps(self, t: float) -> float:
        return float(self.field.modulus(math.exp(-min(t, 700.0))))


def reduced_system(field: CoefficientField,
                   quad: QuadratureSettings = DEFAULT_QUADRATURE) -> ReducedSystem:
    return ReducedSystem(field, quad)


def second_harmonic_system(g_tilde: Callable[[float], float],
                           label: str = "second-harmonic pattern") -> MatrixSystem:
    """Closed-form reduced system for a = 1 + g(r) cos(2 phi).

    The only nonzero moment is the first: the drift matrix has first column
    (-g/2, 0, 0, g/2) and zeros elsewhere.  Used as an oracle family where
    g_tilde(t) = g(e^-t) is given directly.
    """

    def matrix_fn(t):
        q = float(g_tilde(t))
        R = np.zeros((4, 4))
        R[0, 0] = -0.5 * q
        R[3, 0] = 0.5 * q
        return R

    return MatrixSystem(4, matrix_fn, eps_fn=lambda t: abs(float(g_tilde(t))),
                        label=label)


def _block4(tl, tr, bl, br):
    return np.block([[tl, tr], [bl, br]])


_I4 = np.eye(4)
M_INF = _block4(-_I4, 2.0 * _I4, 0.5 * _I4, -_I4)
J_BASIS = _block4(2.0 * _I4, 2.0 * _I4, _I4, -_I4)
J_BASIS_INV = _block4(0.25 * _I4, 0.5 * _I4, 0.25 * _I4, -0.5 * _I4)
_DIAG_LIMIT = np.diag([0.0] * 4 + [-2.0] * 4)


class FullSystem(_PointwiseSystem):
    """Exact 8x8 first-order system in (V, U) after circle-mean elimination.

    The elimination is carried out exactly, so the second-order remainder
    S2 := M - M_inf - S1 is fully determined rather than an unspecified
    O(eps^2) term.  All forcing from the higher-harmonic remainder field is
    dropped: this is the homogeneous system the stability statements
    condition on.
    """

    dim = 8

    def __init__(self, field: CoefficientField,
                 quad: QuadratureSettings = DEFAULT_QUADRATURE):
        self.field = field
        self.quad = quad
        self.m_inf = M_INF
        self.j_basis = J_BASIS
        self.j_basis_inv = J_BASIS_INV
        self._cache: dict[float, tuple] = {}

    def _tables(self, t: float):
        got = self._cache.get(t)
        if got is None:
            r = min(1.0, math.exp(-t))
            bt = block_table(self.field, r, self.quad)
            got = self._assemble(bt, r)
            self._cache[t] = got
        return got

    def _assemble(self, bt, r):
        A2 = bt.theta2_mean
        try:
            def corr(left, right):
                cols = [np.linalg.solve(A2, right[l]) for l in range(2)]
                return np.block([[left[k] @ cols[l] for l in range(2)]
                                 for k in range(2)])

            a_eff = bt.theta4 - corr(bt.theta3_mean, bt.theta3_mean)
            b_eff = bt.theta2_col - corr(bt.theta3_mean, bt.theta1_col)
            bt_eff = bt.theta2_row - corr(bt.theta1_row, bt.theta3_mean)
            c_eff = bt.plain - corr(bt.theta1_row, bt.theta1_col)
            a_eff_inv = np.linalg.inv(a_eff)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"quadrature block singular at r={r:.6g}") from exc
        m = _block4(-a_eff_inv @ b_eff, a_eff_inv,
                    c_eff - bt_eff @ a_eff_inv @ b_eff,
                    bt_eff @ a_eff_inv - 2.0 * _I4)
        raw_inv = np.linalg.inv(bt.theta4)
        s1 = _block4(_I4 - raw_inv @ bt.theta2_col,
                     raw_inv - 2.0 * _I4,
                     bt.plain - bt.theta2_row @ raw_inv @ bt.theta2_col - 0.5 * _I4,
                     bt.theta2_row @ raw_inv - _I4)
        return m, s1, (a_eff, b_eff, bt_eff, c_eff)

    def matrix(self, t: float) -> np.ndarray:
        return self._tables(t)[0]

    def s1(self, t: float) -> np.ndarray:
        return self._tables(t)[1]

    def s2(self, t: float) -> np.ndarray:
        m, s1, _ = self._tables(t)
        return m - self.m_inf - s1

    def eff_blocks(self, t: float):
        return self._tables(t)[2]

    def conjugated_remainder(self, t: float) -> np.ndarray:
        """J^-1 M(t) J minus the limiting diagonal diag(0_4, -2 I_4)."""
        return self.j_basis_inv @ self.matrix(t) @ self.j_basis - _DIAG_LIMIT

    def reduced_block(self, t: float) -> np.ndarray:
        """Top-left 4x4 block of the conjugated remainder."""
        return self.conjugated_remainder(t)[:4, :4]

    def reduced_block_system(self) -> MatrixSystem:
        return MatrixSystem(4, self.reduced_block, eps_fn=self.eps,
                            label=f"reduced block of {self.field.label}")

    def eps(self, t: float) -> float:
        return float(self.field.modulus(math.exp(-min(t, 700.0))))


def full_system(field: CoefficientField,
                quad: QuadratureSettings = DEFAULT_QUADRATURE) -> FullSystem:
    return FullSystem(field, quad)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) propagation of fundamental matrices.
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
           22 / 525, -1 / 40)


@dataclass
class TransitionMatrix:
    """Fundamental matrix sample Phi(t, s) with a crude global error tally."""

    s: float
    t: float
    Phi: np.ndarray
    est_error: float


def propagate_dense(system, s: float, t_eval, rtol: float = 1e-10,
                    atol: Optional[float] = None):
    """Propagate the fundamental matrix through every time in t_eval.

    t_eval must be monotone starting at or after s (or at or before s for
    backward integration).  Steps are capped at the next output time, so
    samples are exact integration endpoints, not interpolants.  Each step
    (accepted or rejected) first passes its six stage times t + c_i h to
    `system.prefetch`, so a `ReducedSystem` evaluates their radii in one
    batch; the stages then read the cache, at the same times.  Returns
    (array of Phi with shape (len(t_eval), d, d), accumulated error).
    """
    if not 1e-12 <= rtol <= 1e-3:
        raise ValueError("rtol must lie in [1e-12, 1e-3]")
    if atol is None:
        atol = rtol * 1e-2
    ts = [float(v) for v in t_eval]
    d = system.dim
    if not ts:
        return np.zeros((0, d, d)), 0.0
    direction = 1.0 if ts[-1] >= s else -1.0
    prev = s
    for v in ts:
        if direction * (v - prev) < -1e-14:
            raise ValueError("t_eval must be monotone away from s")
        prev = v

    def rhs(t, Y):
        return -system.matrix(t) @ Y

    Y = np.eye(d)
    t = s
    k1 = rhs(t, Y)
    span = max(abs(ts[-1] - s), 1e-6)
    h = min(0.05, span) * direction
    err_total = 0.0
    out = np.empty((len(ts), d, d))
    ks = [None] * 7

    for idx, target in enumerate(ts):
        while direction * (target - t) > 1e-14:
            h = direction * min(abs(h), abs(target - t))
            if abs(h) < 1e-14 * max(1.0, abs(t)):
                raise StepUnderflowError(
                    f"step underflow at t={t:.6g} (h={h:.3g}, target={target:.6g})")
            ks[0] = k1
            system.prefetch([t + _DP_C[i] * h for i in range(1, 7)])
            for i in range(1, 7):
                Yi = Y + h * sum(a * ks[j] for j, a in enumerate(_DP_A[i]))
                ks[i] = rhs(t + _DP_C[i] * h, Yi)
            Y_new = Y + h * sum(a * ks[j] for j, a in enumerate(_DP_A[6]))
            # the last stage was evaluated at (t + h, Y_new): FSAL
            err_mat = h * sum(e * ks[j] for j, e in enumerate(_DP_ERR))
            scale = atol + rtol * np.maximum(np.abs(Y), np.abs(Y_new))
            err_norm = float(np.sqrt(np.mean((err_mat / scale) ** 2)))
            if err_norm <= 1.0:
                t = t + h
                Y = Y_new
                k1 = ks[6]
                err_total += float(np.max(np.abs(err_mat)))
                grow = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
                h *= min(5.0, max(0.2, grow))
            else:
                h *= max(0.2, 0.9 * err_norm ** -0.2)
        out[idx] = Y
    return out, err_total


def propagate(system, s: float, t: float, rtol: float = 1e-10,
              atol: Optional[float] = None) -> TransitionMatrix:
    """Fundamental matrix Phi(t, s) of y' + K(tau) y = 0."""
    phis, err = propagate_dense(system, s, [t], rtol, atol)
    return TransitionMatrix(s, t, phis[0], err)


# ---------------------------------------------------------------------------
# Finite-horizon probes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeSettings:
    rtol: float = 1e-10
    kappa_threshold: float = 1e3
    slope_margin: float = 0.01     # log-growth per unit t that counts as growth
    const_tol: float = 0.25        # Cauchy deviation allowed for "constant"
    growth_factor: float = 2.5     # norm growth that counts as divergence
    samples_per_unit: int = 20
    min_samples: int = 200


@dataclass
class StabilityReport:
    """Aggregated probe verdicts; either part may be absent."""

    horizon: float
    kappa_samples: list = dc_field(default_factory=list)   # (s, T, kappa)
    uniform_stability: Optional[str] = None
    kappa_max: float = math.nan
    growth_slope: float = math.nan
    constancy_samples: list = dc_field(default_factory=list)  # (basis, T, dev)
    asymptotic_constancy: Optional[str] = None
    deviation_half: float = math.nan
    norm_growth: float = math.nan

    def merged_with(self, other: "StabilityReport") -> "StabilityReport":
        merged = StabilityReport(horizon=max(self.horizon, other.horizon))
        for part in (self, other):
            if part.uniform_stability is not None:
                merged.kappa_samples = part.kappa_samples
                merged.uniform_stability = part.uniform_stability
                merged.kappa_max = part.kappa_max
                merged.growth_slope = part.growth_slope
            if part.asymptotic_constancy is not None:
                merged.constancy_samples = part.constancy_samples
                merged.asymptotic_constancy = part.asymptotic_constancy
                merged.deviation_half = part.deviation_half
                merged.norm_growth = part.norm_growth
        return merged


def _dense_times(s: float, t_max: float, settings: ProbeSettings) -> np.ndarray:
    n = max(settings.min_samples, int(settings.samples_per_unit * (t_max - s)))
    return np.linspace(s, t_max, n)


def uniform_stability_probe(system, s_grid: Sequence[float], t_max: float,
                            settings: ProbeSettings = ProbeSettings()) -> StabilityReport:
    """Sample kappa(s, T) = sup_{s<=t<=T} |Phi(t, s)| and classify its trend.

    Unstable means a sustained positive slope of log kappa over the tail of
    the horizon; stable means kappa stays under the threshold with no such
    trend.  Verdicts are deterministic functions of the sample tables.
    """
    s_grid = [float(v) for v in s_grid]
    if not s_grid or max(s_grid) >= t_max:
        raise ValueError("need a nonempty s_grid below t_max")
    report = StabilityReport(horizon=t_max)
    kappa_max = 0.0
    slope_max = -math.inf
    for s in s_grid:
        ts = _dense_times(s, t_max, settings)
        phis, _ = propagate_dense(system, s, ts, settings.rtol)
        norms = np.array([np.linalg.norm(P, 2) for P in phis])
        running = np.maximum.accumulate(norms)
        for frac in (0.25, 0.5, 0.75, 1.0):
            T = s + frac * (t_max - s)
            idx = int(np.searchsorted(ts, T, side="right")) - 1
            report.kappa_samples.append((s, float(T), float(running[idx])))
        kappa_max = max(kappa_max, float(running[-1]))
        mask = ts >= s + (t_max - s) / 3.0
        slope = float(np.polyfit(ts[mask],
                                 np.log(np.clip(running[mask], 1e-300, None)),
                                 1)[0])
        slope_max = max(slope_max, slope)
    report.kappa_max = kappa_max
    report.growth_slope = slope_max
    if slope_max > settings.slope_margin and kappa_max > 1.05:
        report.uniform_stability = UNSTABLE
    elif kappa_max <= settings.kappa_threshold and slope_max <= settings.slope_margin:
        report.uniform_stability = STABLE
    else:
        report.uniform_stability = INCONCLUSIVE
    return report


def asymptotic_constancy_probe(system, t0: float, t_max: float,
                               settings: ProbeSettings = ProbeSettings(),
                               basis: Optional[np.ndarray] = None) -> StabilityReport:
    """Cauchy-deviation probe: do basis trajectories settle to limits?

    For each basis initial condition at t0, record the suffix deviations
    sup_{T<=t,t'} |phi(t) - phi(t')| componentwise; `constant` needs the
    half-horizon deviation below const_tol for every basis vector,
    `divergent` needs sustained norm growth.
    """
    if not t0 < t_max:
        raise ValueError("need t0 < t_max")
    ts = _dense_times(t0, t_max, settings)
    phis, _ = propagate_dense(system, t0, ts, settings.rtol)
    if basis is None:
        basis = np.eye(system.dim)
    trajectories = np.einsum("tij,jk->tik", phis, basis)  # [time, comp, basis]
    report = StabilityReport(horizon=t_max)
    dev_half_max = 0.0
    growth_max = 0.0
    half_T = t0 + 0.5 * (t_max - t0)
    for k in range(basis.shape[1]):
        traj = trajectories[:, :, k]
        for frac in (0.0, 0.25, 0.5, 0.75):
            T = t0 + frac * (t_max - t0)
            tail = traj[ts >= T]
            dev = float(np.max(tail.max(axis=0) - tail.min(axis=0)))
            report.constancy_samples.append((k, float(T), dev))
            if frac == 0.5:
                dev_half_max = max(dev_half_max, dev)
        norm0 = max(float(np.max(np.abs(traj[0]))), 1e-300)
        growth_max = max(growth_max, float(np.max(np.abs(traj))) / norm0)
    report.deviation_half = dev_half_max
    report.norm_growth = growth_max
    if dev_half_max <= settings.const_tol:
        report.asymptotic_constancy = CONSTANT
    elif growth_max >= settings.growth_factor:
        report.asymptotic_constancy = DIVERGENT
    else:
        report.asymptotic_constancy = INCONCLUSIVE
    return report


def reduction_deviation(full: FullSystem, reduced: ReducedSystem,
                        ts: Sequence[float]) -> dict:
    """Table of |R1(t) - R(t)| / eps(t)^2 over a time grid.

    The gap between the conjugated top block of the exact system and the
    moment drift matrix should stay a bounded multiple of eps^2; the
    measured bound is recorded, not asserted a priori.  Where eps(t)^2 is
    0 (a constant field) the ratio is undefined: it is recorded as None,
    `eps_zero` is set, and max_ratio and tail_slope use the defined ratios
    (None when there are none, or fewer than three in the later half).
    """
    ts = np.asarray(list(ts), dtype=float)
    devs = np.array([float(np.max(np.abs(full.reduced_block(t) - reduced.matrix(t))))
                     for t in ts])
    epss = np.array([full.eps(t) for t in ts])
    defined = epss**2 > 0.0
    ratio = np.full(len(ts), math.nan)
    ratio[defined] = devs[defined] / epss[defined]**2
    half = len(ts) // 2
    tail = defined[half:]
    slope = (float(np.polyfit(ts[half:][tail], ratio[half:][tail], 1)[0])
             if np.count_nonzero(tail) >= 3 else None)
    return {
        "t": ts.tolist(),
        "deviation": devs.tolist(),
        "eps": epss.tolist(),
        "ratio": [float(v) if ok else None for v, ok in zip(ratio, defined)],
        "max_ratio": float(np.max(ratio[defined])) if defined.any() else None,
        "tail_slope": slope,
        "eps_zero": bool(not defined.all()),
    }
