"""Radius-indexed linear systems in the log-radius variable and their probes.

Two systems are built from a coefficient field, both functions of
t = -log r:

* the reduced 4x4 system  phi' + R(t) phi = 0  whose drift matrix collects
  the second-harmonic circle moments of the coefficients;
* the exact 8x8 system in (V, U) obtained by eliminating the circle-mean
  derivative from the radial balance equations, with constant part
  M_inf = [[-I, 2I], [I/2, -I]] and remainder split M = M_inf + S1 + S2.

Both are radial systems: each radius r = min(1, e^-t) is evaluated once
and memoised by r, uncached radii are evaluated in batches of at most
FILL_BATCH radii, each one batched moments call and one stacked assembly,
and `work` counts the radii evaluated and those that hit the node cap.  A
system reads as `dim`, `matrix(t)`, `matrices(ts)` and `prefetch(ts)`;
`matrix` is the one-row case of `matrices`, except on `ReducedSystem`,
where an uncached radius read alone goes through `moment_vector`.
`prefetch` only fills the memo, so a caller that knows which times it will
read can have their radii evaluated in a few large batches.  The neutral
4x4 block of the conjugated 8x8 system, on which the stability statements
are made, is a view that reads the same memo
(`FullSystem.reduced_block_system`).  For a field that is the same at every
point, whose M is the same at every t, `ConstantFieldSystem` evaluates one
block table and hands its M to every radius.

Fundamental matrices are propagated with an adaptive Dormand-Prince 5(4)
pair in lanes (`propagate_lanes`): each lane is one (s, output times)
integration with its own step control.  Before the first step the stage
times of every lane's capped path (one step from each output time to the
next) go into one `prefetch` call; then, in each round, the six stage
times of every unfinished lane go into one `matrices` call, which finds
the radii of on-plan steps in the memo.  `propagate_dense` is the
one-lane case.

Uniform stability and asymptotic constancy are probed on a finite horizon
with trend extrapolation: each probe is its lanes (`stability_lanes`,
`constancy_lanes`) and a classifier of their samples (`classify_stability`,
`classify_constancy`), so a caller can run the lanes of several probes in
one propagation.  The verdicts are heuristic; their thresholds are the
module constants next to the probes (KAPPA_THRESHOLD, SLOPE_MARGIN,
CONST_TOL, GROWTH_FACTOR) and no caller sets them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .coeff import CoefficientField
from .moments import (DEFAULT_QUADRATURE, BlockTable, QuadratureSettings,
                      block_table, block_tables, moment_matrices, moment_matrix,
                      moment_vector, moment_vectors)
from .tails import INCONCLUSIVE

STABLE = "stable"
UNSTABLE = "unstable"
CONSTANT = "constant"
DIVERGENT = "divergent"

# the relative tolerances `propagate_lanes` accepts
RTOL_RANGE = (1e-12, 1e-3)


class SingularSystemError(RuntimeError):
    """A quadrature block that must be inverted was singular."""


class StepUnderflowError(RuntimeError):
    """The adaptive integrator could not make progress."""


class MatrixSystem:
    """A linear system y' + K(t) y = 0 given by an explicit matrix callable."""

    def __init__(self, dim: int, matrix_fn: Callable[[float], np.ndarray]):
        self.dim = dim
        self._fn = matrix_fn

    def matrix(self, t: float) -> np.ndarray:
        return np.asarray(self._fn(t), dtype=float)

    def matrices(self, ts) -> np.ndarray:
        return np.array([self.matrix(t) for t in ts])

    def prefetch(self, ts) -> None:
        """Nothing to fill: every matrix is read from the callable."""


def _radius(t: float) -> float:
    """r = min(1, e^-t); math.exp, as np.exp differs in the last bit for some t."""
    return min(1.0, math.exp(-t))


# the most radii one evaluation batch of a radial system holds: past it the
# batch's tables and moments would cost memory and save no time
FILL_BATCH = 1024


class _RadialSystem:
    """A system in t = -log r built from circle means of a field at r = min(1, e^-t).

    Each radius is evaluated once and memoised, whatever t asked for it.  A
    subclass says how to evaluate a batch of radii (`_batch`, which returns
    one drift matrix per radius and the mask of radii that hit the node
    cap) and defines `matrix(t)`.  `prefetch(ts)` evaluates the uncached
    radii of ts in `_batch` calls of at most FILL_BATCH radii and builds no
    stack; `matrices(ts)` does the same fill and then stacks the drift
    matrices.  `work` counts, where the memo is filled, the radii evaluated
    and those that hit the node cap.
    """

    def __init__(self, field: CoefficientField,
                 quad: QuadratureSettings = DEFAULT_QUADRATURE):
        self.field = field
        self.quad = quad
        self._memo: dict = {}
        self.work = {"radii": 0, "cap_hits": 0}

    def _store(self, radii: list, mats, capped) -> None:
        self._memo.update(zip(radii, mats))
        self.work["radii"] += len(radii)
        self.work["cap_hits"] += int(np.count_nonzero(capped))

    def _fill(self, radii) -> None:
        """Memoise the uncached radii of an iterable, in order of first
        appearance, through `_batch` calls of at most FILL_BATCH radii."""
        batch = {}
        for r in radii:
            if r not in self._memo:
                batch[r] = None
                if len(batch) == FILL_BATCH:
                    self._store(list(batch), *self._batch(list(batch)))
                    batch = {}
        if batch:
            self._store(list(batch), *self._batch(list(batch)))

    def prefetch(self, ts) -> None:
        """Evaluate and memoise the radii of the times ts (any iterable)."""
        self._fill(map(_radius, ts))

    def matrices(self, ts) -> np.ndarray:
        """The stack of drift matrices over ts, shape (len(ts), dim, dim)."""
        radii = [_radius(t) for t in ts]
        self._fill(radii)
        return np.array([self._memo[r] for r in radii])


class ReducedSystem(_RadialSystem):
    """t -> 4x4 drift matrix R(t) of the six second-harmonic moments at r = e^-t.

    This is the one path from a field to R(t): the probes and every
    criterion read `matrix` and `matrices` of a shared instance.  A batch
    of radii is one `moment_vectors` call (chunked there) and one stacked
    `moment_matrices`; an uncached radius read alone through `matrix` is
    one `moment_vector` call.
    """

    dim = 4

    def _batch(self, radii: list):
        m6, capped = moment_vectors(self.field, radii, self.quad)
        return moment_matrices(m6), capped

    def matrix(self, t: float) -> np.ndarray:
        r = _radius(t)
        if r not in self._memo:
            m = moment_vector(self.field, r, self.quad)
            self._store([r], [moment_matrix(m)], [m.capped])
        return self._memo[r]


def second_harmonic_system(g_tilde: Callable[[float], float]) -> MatrixSystem:
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

    return MatrixSystem(4, matrix_fn)


def _join(tl, tr, bl, br) -> np.ndarray:
    """The 8x8 matrices [[tl, tr], [bl, br]] of 4x4 blocks, stacked over any
    leading axes of tl."""
    out = np.empty(np.shape(tl)[:-2] + (8, 8))
    out[..., :4, :4] = tl
    out[..., :4, 4:] = tr
    out[..., 4:, :4] = bl
    out[..., 4:, 4:] = br
    return out


_I4 = np.eye(4)
M_INF = _join(-_I4, 2.0 * _I4, 0.5 * _I4, -_I4)
J_BASIS = _join(2.0 * _I4, 2.0 * _I4, _I4, -_I4)
J_BASIS_INV = _join(0.25 * _I4, 0.5 * _I4, 0.25 * _I4, -0.5 * _I4)
_DIAG_LIMIT = np.diag([0.0] * 4 + [-2.0] * 4)


def _conjugate(m: np.ndarray) -> np.ndarray:
    """J^-1 M J minus the limiting diagonal diag(0_4, -2 I_4), for one M or a stack."""
    return J_BASIS_INV @ m @ J_BASIS - _DIAG_LIMIT


def _assemble(bt: BlockTable):
    """Drift matrices M and effective blocks from block tables stacked over k radii.

    Returns M of shape (k, 8, 8) and (a_eff, b_eff, bt_eff, c_eff), each of
    shape (k, 4, 4).  np.linalg.LinAlgError when a block is singular.
    """
    A2 = bt.theta2_mean[:, None]
    # A2^-1 theta3_mean[l] and A2^-1 theta1_col[l], each solved once
    solved3 = np.linalg.solve(A2, bt.theta3_mean)
    solved1 = np.linalg.solve(A2, bt.theta1_col)

    def corr(left, cols):  # block (k, l) is left[k] cols[l]
        out = np.empty((len(left), 4, 4))
        for k in range(2):
            for l in range(2):
                out[:, 2 * k:2 * k + 2, 2 * l:2 * l + 2] = left[:, k] @ cols[:, l]
        return out

    a_eff = bt.theta4 - corr(bt.theta3_mean, solved3)
    b_eff = bt.theta2_col - corr(bt.theta3_mean, solved1)
    bt_eff = bt.theta2_row - corr(bt.theta1_row, solved3)
    c_eff = bt.plain - corr(bt.theta1_row, solved1)
    a_eff_inv = np.linalg.inv(a_eff)
    bt_a_inv = bt_eff @ a_eff_inv
    m = _join(-a_eff_inv @ b_eff, a_eff_inv, c_eff - bt_a_inv @ b_eff,
              bt_a_inv - 2.0 * _I4)
    return m, (a_eff, b_eff, bt_eff, c_eff)


def _map_tables(fn, bt: BlockTable) -> BlockTable:
    """The table with fn applied to r and to each of its eight tables."""
    return BlockTable(*(fn(getattr(bt, f.name)) for f in fields(BlockTable)))


class FullSystem(_RadialSystem):
    """Exact 8x8 first-order system in (V, U) after circle-mean elimination.

    The elimination is carried out exactly, so the second-order remainder
    S2 := M - M_inf - S1 is fully determined rather than an unspecified
    O(eps^2) term.  All forcing from the higher-harmonic remainder field is
    dropped: this is the homogeneous system the stability statements
    condition on.  Each radius memoises M.  A batch of radii is one
    `block_tables` call and one stacked `_assemble`.  The effective blocks,
    S1 and S2 are recomputed from a fresh `block_table` when asked for.
    """

    dim = 8

    def _batch(self, radii: list):
        bt, capped = block_tables(self.field, radii, self.quad)
        return self._assembled(bt)[0], capped

    @staticmethod
    def _assembled(bt: BlockTable):
        """`_assemble` of a stacked table, or SingularSystemError naming the
        first radius whose own assembly fails."""
        try:
            return _assemble(bt)
        except np.linalg.LinAlgError as exc:
            # name the first radius whose own assembly fails
            for i, r in enumerate(bt.r):
                try:
                    _assemble(_map_tables(lambda v: v[i:i + 1], bt))
                except np.linalg.LinAlgError:
                    break
            raise SingularSystemError(
                f"quadrature block singular at r={r:.6g}") from exc

    def matrix(self, t: float) -> np.ndarray:
        return self.matrices([t])[0]

    def s1(self, t: float) -> np.ndarray:
        """First-order remainder S1, from the raw (uncorrected) blocks."""
        bt = block_table(self.field, _radius(t), self.quad)
        raw_inv = np.linalg.inv(bt.theta4)
        return _join(_I4 - raw_inv @ bt.theta2_col,
                     raw_inv - 2.0 * _I4,
                     bt.plain - bt.theta2_row @ raw_inv @ bt.theta2_col - 0.5 * _I4,
                     bt.theta2_row @ raw_inv - _I4)

    def s2(self, t: float) -> np.ndarray:
        return self.matrix(t) - M_INF - self.s1(t)

    def eff_blocks(self, t: float):
        """(a_eff, b_eff, bt_eff, c_eff) at r = min(1, e^-t)."""
        bt = block_table(self.field, _radius(t), self.quad)
        _, eff = self._assembled(_map_tables(lambda v: np.asarray(v)[None], bt))
        return tuple(block[0] for block in eff)

    def reduced_block_system(self) -> ReducedBlockSystem:
        return ReducedBlockSystem(self)


class ConstantFieldSystem(FullSystem):
    """The 8x8 system of a field that is the same at every point, such as the
    constant Laplacian: one block table, one M for every t.

    Where a, b and c do not depend on (x, y), every row of the (radii x
    nodes) sample grid is the same, so every radius converges at the same
    node level with the same tables, bit for bit, and `_assemble` maps
    equal rows to equal M.  So the first `_batch` evaluates the block
    table at its first radius alone and every batch hands that M to each
    of its radii; the memo, `work` and `eff_blocks` are `FullSystem`'s.
    This is the matrix `FullSystem` gives at every t, not `M_INF`, from
    which it differs by rounding.
    """

    _first = None

    def _batch(self, radii: list):
        if self._first is None:
            self._first = super()._batch(radii[:1])
        (m,), (capped,) = self._first
        return [m] * len(radii), [capped] * len(radii)


class ReducedBlockSystem:
    """The neutral 4x4 block of the conjugated remainder, read through a FullSystem.

    A radial view with no memo of its own: `matrices(ts)` conjugates the
    stack `full.matrices(ts)`, so the view and the 8x8 system share one
    memo, one batch per call and one `work` ledger; `prefetch(ts)` fills
    that memo and `matrix(t)` is the one-row case of `matrices`.
    """

    dim = 4

    def __init__(self, full: FullSystem):
        self.full = full

    def matrix(self, t: float) -> np.ndarray:
        return self.matrices([t])[0]

    def matrices(self, ts) -> np.ndarray:
        return _conjugate(self.full.matrices(ts))[:, :4, :4]

    def prefetch(self, ts) -> None:
        self.full.prefetch(ts)


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


class _Lane:
    """One lane of `propagate_lanes`: its output times and samples, and its
    own step control in Python scalars (time t, step h, the index of the
    next output time and the error tally).  `plan` maps each point of the
    lane's capped path to the step it takes from there."""

    __slots__ = ("ts", "direction", "t", "h", "idx", "err", "out", "plan")

    def __init__(self, s: float, t_eval, d: int):
        self.ts = [float(v) for v in t_eval]
        self.direction = 1.0 if not self.ts or self.ts[-1] >= s else -1.0
        prev = s
        for v in self.ts:
            if self.direction * (v - prev) < -1e-14:
                raise ValueError("t_eval must be monotone away from s")
            prev = v
        self.t = s
        span = max(abs(self.ts[-1] - s), 1e-6) if self.ts else 0.0
        self.h = min(0.05, span) * self.direction
        self.idx = 0
        self.err = 0.0
        self.out = np.empty((len(self.ts), d, d))
        self.plan = self._capped_path()

    def _reached(self, t: float, idx: int) -> int:
        """The index of the first output time not yet reached at t."""
        while (idx < len(self.ts)
               and self.direction * (self.ts[idx] - t) <= 1e-14):
            idx += 1
        return idx

    def _capped_path(self) -> dict:
        """{t: h} along the path on which every trial step ends at the next
        output time, chained in the lane's own arithmetic, so that a step
        taken on it reads exactly the stage times t + c_i h; it ends where
        such a step would underflow."""
        path = {}
        t, idx = self.t, self._reached(self.t, 0)
        while idx < len(self.ts):
            h = self.direction * abs(self.ts[idx] - t)
            if abs(h) < 1e-14 * max(1.0, abs(t)):
                break
            path[t] = h
            t = t + h
            idx = self._reached(t, idx)
        return path

    def advance(self, Y: np.ndarray) -> bool:
        """Record Y at every output time already reached; True while a time
        is left to reach."""
        reached = self._reached(self.t, self.idx)
        self.out[self.idx:reached] = Y
        self.idx = reached
        return self.idx < len(self.ts)

    def trial_step(self) -> float:
        """The next trial step, capped at the next output time."""
        target = self.ts[self.idx]
        self.h = self.direction * min(abs(self.h), abs(target - self.t))
        if abs(self.h) < 1e-14 * max(1.0, abs(self.t)):
            raise StepUnderflowError(f"step underflow at t={self.t:.6g} "
                                     f"(h={self.h:.3g}, target={target:.6g})")
        return self.h


def propagate_lanes(system, lanes, rtol: float = 1e-10):
    """Propagate the fundamental matrix along several lanes in lockstep.

    A lane is a pair (s, t_eval): Phi(t, s) is sampled at every t in
    t_eval, which must be monotone starting at or after s (or at or before
    s for backward integration).  The integrator is an adaptive
    Dormand-Prince 5(4) pair with absolute tolerance rtol * 1e-2.  Steps
    are capped at the next output time, so samples are exact integration
    endpoints, not interpolants.

    The plan: nearly every step is capped, so before the first round each
    lane lists its capped path, one step from s to the first output time
    and from each output time to the next, chained in the lane's own
    arithmetic, and the six stage times t + c_i h of every planned step go
    into one `system.prefetch` call.  A radial system evaluates their radii
    there in a few large batches.  The plan changes no step: it only
    decides when radii are evaluated.  Only off-plan trial steps need radii
    that are not yet memoised: a first step (it starts at h = 0.05) that
    falls short of the first output time, and rejected or shortened ones.

    The rounds: in each round every unfinished lane takes one trial step.
    The six stage times of all of them go into one `system.matrices` call,
    and the stage arithmetic runs on the lane states stacked as (L, d, d).
    Each lane keeps its own step control (capping, accept/reject, the h
    update, the underflow check and the error tally) in Python scalars,
    and stacked products and means are taken per lane, so a lane's samples
    and error are bit for bit those of integrating it alone.

    Returns (results, work): results holds, per lane, the array of Phi of
    shape (len(t_eval), d, d) and its error tally.  The tally is the sum
    of the max-abs local error estimates of the lane's accepted steps: a
    rough size, not a bound on the global error, which it can overstate
    or understate by two orders of magnitude.  work holds the `matrices`
    calls ("rounds"), the accepted and rejected steps summed over the
    lanes, the largest lane tally ("est_error"), the stage times
    prefetched ("planned") and the trial steps whose stage times were not
    all planned ("off_plan").
    """
    if not RTOL_RANGE[0] <= rtol <= RTOL_RANGE[1]:
        raise ValueError("rtol must lie in [%g, %g]" % RTOL_RANGE)
    atol = rtol * 1e-2
    d = system.dim
    lanes = [_Lane(float(s), t_eval, d) for s, t_eval in lanes]
    planned = 6 * sum(len(lane.plan) for lane in lanes)
    if planned:
        system.prefetch(t + _DP_C[i] * h for lane in lanes
                        for t, h in lane.plan.items() for i in range(1, 7))
    work = {"rounds": 0, "accepted": 0, "rejected": 0, "planned": planned,
            "off_plan": 0}
    active = [lane for lane in lanes if lane.ts]
    if active:
        Y = np.array([np.eye(d)] * len(active))
        k1 = -system.matrices([lane.t for lane in active]) @ Y
        work["rounds"] += 1
    while active:
        going = [lane.advance(y) for lane, y in zip(active, Y)]
        if not all(going):
            active = [lane for lane, on in zip(active, going) if on]
            Y, k1 = Y[going], k1[going]
            if not active:
                break
        hs = [lane.trial_step() for lane in active]
        work["off_plan"] += sum(lane.plan.get(lane.t) != h
                                for lane, h in zip(active, hs))
        H = np.array(hs)[:, None, None]
        Ks = system.matrices([lane.t + _DP_C[i] * h for lane, h in zip(active, hs)
                              for i in range(1, 7)]).reshape(len(active), 6, d, d)
        work["rounds"] += 1
        ks = [k1]
        for i in range(1, 7):
            Yi = Y + H * sum(a * ks[j] for j, a in enumerate(_DP_A[i]))
            ks.append(-Ks[:, i - 1] @ Yi)
        Y_new = Y + H * sum(a * ks[j] for j, a in enumerate(_DP_A[6]))
        # the last stage was evaluated at (t + h, Y_new): FSAL
        err_mat = H * sum(e * ks[j] for j, e in enumerate(_DP_ERR))
        scale = atol + rtol * np.maximum(np.abs(Y), np.abs(Y_new))
        err_norms = np.sqrt(np.mean((err_mat / scale) ** 2, axis=(1, 2))).tolist()
        err_maxes = np.max(np.abs(err_mat), axis=(1, 2)).tolist()
        accepted = [err_norm <= 1.0 for err_norm in err_norms]
        for lane, h, err_norm, err_max, ok in zip(active, hs, err_norms,
                                                   err_maxes, accepted):
            if ok:
                lane.t = lane.t + h
                lane.err += err_max
                grow = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
                lane.h = h * min(5.0, max(0.2, grow))
            else:
                lane.h = h * max(0.2, 0.9 * err_norm ** -0.2)
        work["accepted"] += sum(accepted)
        work["rejected"] += len(accepted) - sum(accepted)
        if any(accepted):
            Y[accepted] = Y_new[accepted]
            k1[accepted] = ks[6][accepted]
    work["est_error"] = max((lane.err for lane in lanes), default=0.0)
    return [(lane.out, lane.err) for lane in lanes], work


def propagate_dense(system, s: float, t_eval, rtol: float = 1e-10):
    """Fundamental matrix Phi(t, s) of y' + K(tau) y = 0 at every t in t_eval.

    The one-lane case of `propagate_lanes`; one sample Phi(t, s) is
    `propagate_dense(system, s, [t])[0][0]`.  Returns (array of Phi with
    shape (len(t_eval), d, d), the lane's error tally).
    """
    results, _ = propagate_lanes(system, [(s, t_eval)], rtol)
    return results[0]


# ---------------------------------------------------------------------------
# Finite-horizon probes.
# ---------------------------------------------------------------------------


KAPPA_THRESHOLD = 1e3      # largest kappa that still reads stable
SLOPE_MARGIN = 0.01        # log-growth per unit t that counts as growth
CONST_TOL = 0.25           # Cauchy deviation allowed for "constant"
GROWTH_FACTOR = 2.5        # norm growth that counts as divergence
SAMPLES_PER_UNIT = 20      # probe samples per unit of t, at least MIN_SAMPLES
MIN_SAMPLES = 200


@dataclass
class StabilityReport:
    """Aggregated probe verdicts; either part may be absent."""

    kappa_samples: list = dc_field(default_factory=list)   # (s, T, kappa)
    uniform_stability: Optional[str] = None
    kappa_max: float = math.nan
    growth_slope: float = math.nan
    constancy_samples: list = dc_field(default_factory=list)  # (basis, T, dev)
    asymptotic_constancy: Optional[str] = None
    deviation_half: float = math.nan
    norm_growth: float = math.nan


def _dense_times(s: float, t_max: float) -> np.ndarray:
    n = max(MIN_SAMPLES, int(SAMPLES_PER_UNIT * (t_max - s)))
    return np.linspace(s, t_max, n)


def stability_lanes(s_grid: Sequence[float], t_max: float) -> list:
    """The lanes of the stability probe: (s, sample times up to t_max) for
    each s in s_grid."""
    s_grid = [float(v) for v in s_grid]
    if not s_grid or max(s_grid) >= t_max:
        raise ValueError("need a nonempty s_grid below t_max")
    return [(s, _dense_times(s, t_max)) for s in s_grid]


def classify_stability(lanes: list, results: list, t_max: float) -> StabilityReport:
    """The stability verdict from the `propagate_lanes` results of
    `stability_lanes`: kappa(s, T) = sup_{s<=t<=T} |Phi(t, s)| and its trend.

    Unstable means a sustained positive slope of log kappa over the tail of
    the horizon; stable means kappa stays under the threshold with no such
    trend.
    """
    report = StabilityReport()
    kappa_max = 0.0
    slope_max = -math.inf
    for (s, ts), (phis, _) in zip(lanes, results):
        norms = np.linalg.norm(phis, 2, axis=(1, 2))
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
    if slope_max > SLOPE_MARGIN and kappa_max > 1.05:
        report.uniform_stability = UNSTABLE
    elif kappa_max <= KAPPA_THRESHOLD and slope_max <= SLOPE_MARGIN:
        report.uniform_stability = STABLE
    else:
        report.uniform_stability = INCONCLUSIVE
    return report


def uniform_stability_probe(system, s_grid: Sequence[float], t_max: float,
                            rtol: float = 1e-10) -> StabilityReport:
    """Sample kappa(s, T) from each s in s_grid and classify its trend.

    The lanes of `stability_lanes` through `propagate_lanes`, read by
    `classify_stability`.  Verdicts are deterministic functions of the
    sample tables.
    """
    lanes = stability_lanes(s_grid, t_max)
    results, _ = propagate_lanes(system, lanes, rtol)
    return classify_stability(lanes, results, t_max)


def constancy_lanes(t0: float, t_max: float) -> list:
    """The one lane of the constancy probe: (t0, sample times up to t_max)."""
    if not t0 < t_max:
        raise ValueError("need t0 < t_max")
    return [(t0, _dense_times(t0, t_max))]


def classify_constancy(lanes: list, results: list, t_max: float) -> StabilityReport:
    """The constancy verdict from the `propagate_lanes` result of
    `constancy_lanes`: do the unit-vector trajectories settle to limits?

    For each unit initial condition at t0, record the suffix deviations
    sup_{T<=t,t'} |phi(t) - phi(t')| componentwise; `constant` needs the
    half-horizon deviation below CONST_TOL for every unit vector,
    `divergent` needs sustained norm growth.
    """
    (t0, ts), = lanes
    (phis, _), = results
    report = StabilityReport()
    dev_half_max = 0.0
    growth_max = 0.0
    for k in range(phis.shape[-1]):
        traj = phis[:, :, k]
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
    if dev_half_max <= CONST_TOL:
        report.asymptotic_constancy = CONSTANT
    elif growth_max >= GROWTH_FACTOR:
        report.asymptotic_constancy = DIVERGENT
    else:
        report.asymptotic_constancy = INCONCLUSIVE
    return report


def asymptotic_constancy_probe(system, t0: float, t_max: float,
                               rtol: float = 1e-10) -> StabilityReport:
    """Cauchy-deviation probe of the trajectories from t0.

    The lane of `constancy_lanes` through `propagate_lanes`, read by
    `classify_constancy`.
    """
    lanes = constancy_lanes(t0, t_max)
    results, _ = propagate_lanes(system, lanes, rtol)
    return classify_constancy(lanes, results, t_max)


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
    gaps = full.reduced_block_system().matrices(ts) - reduced.matrices(ts)
    devs = np.max(np.abs(gaps), axis=(1, 2))
    # the scalar exp of each t: np.exp differs from math.exp in the last bit
    # for some t, and that would move the ratios
    epss = np.array([float(full.field.modulus(math.exp(-min(t, 700.0))))
                     for t in ts])
    defined = epss**2 > 0.0
    ratio = np.full(len(ts), math.nan)
    ratio[defined] = devs[defined] / epss[defined]**2
    half = len(ts) // 2
    tail = defined[half:]
    slope = (float(np.polyfit(ts[half:][tail], ratio[half:][tail], 1)[0])
             if np.count_nonzero(tail) >= 3 else None)
    return {
        "t": ts.tolist(),
        "ratio": [float(v) if ok else None for v, ok in zip(ratio, defined)],
        "max_ratio": float(np.max(ratio[defined])) if defined.any() else None,
        "tail_slope": slope,
        "eps_zero": bool(not defined.all()),
    }
