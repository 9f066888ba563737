"""Radius-indexed linear systems in the log-radius variable and their probes.

Two systems are built from a coefficient field, both functions of
t = -log r:

* the reduced 4x4 system  phi' + R(t) phi = 0  whose drift matrix collects
  the second-harmonic circle moments of the coefficients;
* the exact 8x8 system in (V, U) obtained by eliminating the circle-mean
  derivative from the radial balance equations, with constant part
  M_inf = [[-I, 2I], [I/2, -I]] and remainder split M = M_inf + S1 + S2.

Both are radial systems, exact at every radius r = min(1, e^-t): a
system reads as `dim`, `matrix(t)` and `matrices(ts)`, where `matrices` is
one batched moments call and one stacked assembly on the radii of ts, and
`work` counts the radii evaluated and those that hit the node cap.
`matrix` is the one-row case of `matrices`, except on `ReducedSystem`,
where a radius read alone goes through `moment_vector`.  The neutral 4x4
block of the conjugated 8x8 system, on which the stability statements are
made, is a view (`ReducedBlockSystem`).  For a field that is the same at
every point, whose M is the same at every t, `ConstantFieldSystem`
evaluates one block table and hands its M to every radius.

A `DriftTable` is the view of a radial system that the pipeline's stages
read: it holds the exact matrix at the 32 Gauss-Legendre nodes of each
dyadic window [k ln 2, (k + 1) ln 2] that a stage asked about, at the node
times of `tails.dyadic_window_sums`, and reads any other time by
barycentric interpolation in its window's nodes.  A window whose
interpolant misses the exact matrix at its midpoint by more than
TABLE_TOL is unresolved, and its times are read exactly.

Fundamental matrices are propagated with an adaptive Dormand-Prince 5(4)
pair in lanes (`propagate_lanes`): each lane is one (s, output times)
integration with its own step control.  On a linear system a step is a
matrix P(t, h) applied to the state, so in each round every unfinished
lane plans its share of ROUND_CAP steps that its controller would cap at
its next output times; one `matrices` call reads -K at each lane's t and
at five stage times per planned step, and the propagators are formed
together; each lane then scans its plan, Y <- P Y, with its own step
control, and discards the rest of the plan where the control departs from
it.  `propagate_dense` is the one-lane case.

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
from .tails import _GL_NODES, _GL_WEIGHTS, INCONCLUSIVE, LN2, window_nodes

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


def _radius(t: float) -> float:
    """r = min(1, e^-t); math.exp, as np.exp differs in the last bit for some t."""
    return min(1.0, math.exp(-t))


class _RadialSystem:
    """A system in t = -log r built from circle means of a field at r = min(1, e^-t).

    A subclass says how to evaluate a batch of radii (`_batch`, which
    returns one drift matrix per radius and the mask of radii that hit the
    node cap) and defines `matrix(t)`.  `matrices(ts)` is one `_batch` on
    the radii of ts.  `work` counts the radii evaluated and those that hit
    the node cap.
    """

    def __init__(self, field: CoefficientField,
                 quad: QuadratureSettings = DEFAULT_QUADRATURE):
        self.field = field
        self.quad = quad
        self.work = {"radii": 0, "cap_hits": 0}

    def _count(self, capped) -> None:
        """Count the radii of a cap mask and those that hit the cap."""
        self.work["radii"] += int(np.size(capped))
        self.work["cap_hits"] += int(np.count_nonzero(capped))

    def matrices(self, ts) -> np.ndarray:
        """The stack of drift matrices over ts, shape (len(ts), dim, dim)."""
        radii = [_radius(t) for t in ts]
        mats, capped = self._batch(radii)
        self._count(capped)
        return np.asarray(mats)


class ReducedSystem(_RadialSystem):
    """t -> 4x4 drift matrix R(t) of the six second-harmonic moments at r = e^-t.

    This is the one path from a field to R(t): the probes and every
    criterion read it through one shared `DriftTable`.  A batch of radii
    is one `moment_vectors` call (chunked there) and one stacked
    `moment_matrices`; a radius read alone through `matrix` is one
    `moment_vector` call.
    """

    dim = 4

    def _batch(self, radii: list):
        m6, capped = moment_vectors(self.field, radii, self.quad)
        return moment_matrices(m6), capped

    def matrix(self, t: float) -> np.ndarray:
        m = moment_vector(self.field, _radius(t), self.quad)
        self._count(m.capped)
        return moment_matrix(m)


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
    condition on.  A batch of radii is one `block_tables` call and one
    stacked `_assemble`.  The effective blocks, S1 and S2 are computed from
    a fresh `block_table` when asked for.
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
    of its radii; `work` and `eff_blocks` are `FullSystem`'s.  This is the
    matrix `FullSystem` gives at every t, not `M_INF`, from which it
    differs by rounding.
    """

    _first = None

    def _batch(self, radii: list):
        if self._first is None:
            self._first = super()._batch(radii[:1])
        (m,), (capped,) = self._first
        return [m] * len(radii), [capped] * len(radii)


class ReducedBlockSystem:
    """The neutral 4x4 block of the conjugated remainder, read through an
    8x8 system: a FullSystem or its DriftTable.

    A view with nothing of its own: `matrices(ts)` conjugates the stack
    `full.matrices(ts)`, so the view and the 8x8 system share one batch per
    call and one `work` ledger; `matrix(t)` is the one-row case of
    `matrices`.
    """

    dim = 4

    def __init__(self, full):
        self.full = full

    def matrix(self, t: float) -> np.ndarray:
        return self.matrices([t])[0]

    def matrices(self, ts) -> np.ndarray:
        return _conjugate(self.full.matrices(ts))[:, :4, :4]


# the barycentric weights of the Gauss-Legendre nodes of a window, in the
# order of tails' nodes (Wang-Xiang, SIAM J. Sci. Comput. 34(3), 2012)
_BARY_WEIGHTS = (-1.0) ** np.arange(_GL_NODES.size) * np.sqrt(
    (1.0 - _GL_NODES**2) * _GL_WEIGHTS)

# a window whose interpolant misses the exact matrix at the window's
# midpoint by more than this, relative to max(1, max|M|), is unresolved
TABLE_TOL = 1e-12

# the most 4x4 matrices one interpolation step reads: each gathers its
# window's (32, dim**2) differences, 512 KB for 128 of them; a table of
# larger matrices reads proportionally fewer per step (32 of the 8x8 system)
READ_BLOCK = 128


class DriftTable(MatrixSystem):
    """A radial system's drift matrix, held at the Gauss-Legendre nodes of
    each dyadic window it was asked about and interpolated in between.

    The node times of window k = [k ln 2, (k + 1) ln 2] are its
    `tails.window_nodes`, those of `tails.dyadic_window_sums`, so a window
    sum reads the exact matrices bit for bit.  `matrices(ts)` first fills,
    in one `matrices` call of the exact system, every window that ts touch
    and the table lacks: 32 node radii and one check radius at the midpoint
    per window, and r = 1 if a t <= 0 is asked for.  Then it reads
    * a time t <= 0 as the exact r = 1 matrix, the clamp of `_radius`;
    * a node time, found where t - t_j is 0, that is where t equals a node
      time bit for bit, as its exact matrix;
    * any other time t of window k by the barycentric formula
      (Berrut-Trefethen, SIAM Rev. 46(3), 2004) in the form
      M_0 - sum_j c_j(t) (M_0 - M_j), with the differences held since the
      fill: it reads a matrix that is the same at every node as that
      matrix, sign bits included.
    The guard: where the interpolant at a window's midpoint misses the
    exact matrix there by more than TABLE_TOL max(1, max|M|), the window
    is unresolved and its off-node times are read by the exact system.

    `matrix(t)` and `eff_blocks(t)` are exact: a held r = 1, node or
    midpoint matrix, or else the exact system's own.  `matrix` is
    MatrixSystem's, reading `_fn`, so that the benchmark's tracer, which
    wraps the `matrix` of MatrixSystem, ReducedSystem and FullSystem,
    counts the table's single reads too.
    `work` is the exact system's ledger with the windows filled and the
    unresolved ones among them.
    """

    def __init__(self, system):
        self.dim = system.dim
        self.system = system
        n, dd = _GL_NODES.size, system.dim**2
        self._slot = np.full(0, -1)           # window -> its slot, -1 if not held
        self._times = np.empty((0, n))        # per slot: the node times
        self._nodes = np.empty((0, n, dd))    # per slot: M_j
        self._drops = np.empty((0, n, dd))    # per slot: M_0 - M_j
        self._mid_times = np.empty(0)         # per slot: the midpoint
        self._mids = np.empty((0, dd))        # per slot: M at the midpoint
        self._unresolved = np.zeros(0, dtype=bool)
        self._some_unresolved = False
        self._origin = None                   # the r = 1 matrix
        self._windows = 0

    @property
    def work(self) -> dict:
        return {**self.system.work, "windows": self._windows,
                "unresolved_windows": int(np.count_nonzero(self._unresolved))}

    def _fill(self, windows: list, origin: bool) -> None:
        """Evaluate the given windows, and r = 1 if origin, in one exact
        `matrices` call."""
        dd = self.dim**2
        mids, _, times = window_nodes([(k * LN2, (k + 1) * LN2) for k in windows])
        mats = self.system.matrices(times.ravel().tolist() + mids.tolist()
                                    + ([0.0] if origin else []))
        if origin:
            self._origin = mats[-1].copy()
        w, n = times.shape
        flat = mats.reshape(len(mats), dd)
        nodes = flat[:times.size].reshape(w, n, dd)
        exact = flat[times.size:times.size + w]
        slots = np.arange(len(self._times), len(self._times) + w)
        self._slot[windows] = slots
        self._times = np.concatenate([self._times, times])
        self._nodes = np.concatenate([self._nodes, nodes])
        self._drops = np.concatenate([self._drops, nodes[:, :1] - nodes])
        self._mid_times = np.concatenate([self._mid_times, mids])
        self._mids = np.concatenate([self._mids, exact])
        self._unresolved = np.concatenate([self._unresolved, np.zeros(w, dtype=bool)])
        miss = np.max(np.abs(self._interpolate(mids, slots) - exact), axis=1)
        self._unresolved[slots] = miss > TABLE_TOL * np.maximum(
            1.0, np.max(np.abs(exact), axis=1))
        self._some_unresolved = bool(self._unresolved.any())
        self._windows += w

    def matrices(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        origin = ts <= 0.0
        some_origin = bool(origin.any())
        inner = ts[~origin] if some_origin else ts
        windows = (inner // LN2).astype(np.intp)
        top = int(windows.max()) + 1 if windows.size else 0
        if top > self._slot.size:
            self._slot = np.concatenate([self._slot, np.full(top - self._slot.size, -1)])
        slots = self._slot[windows]
        lacking = slots < 0
        if lacking.any() or (some_origin and self._origin is None):
            self._fill(sorted(set(windows[lacking].tolist())),
                       some_origin and self._origin is None)
            slots = self._slot[windows]
        read = self._interpolate(inner, slots).reshape(-1, self.dim, self.dim)
        if not some_origin:
            return read
        out = np.empty((ts.size, self.dim, self.dim))
        out[origin] = self._origin
        out[~origin] = read
        return out

    def _interpolate(self, ts: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """The matrices at times ts > 0 of held windows (their slots),
        flattened to shape (len(ts), dim**2), a READ_BLOCK gather at a
        time: a node time by its node matrix, another time in an unresolved
        window by the exact system, any other time by the barycentric
        formula."""
        out = np.empty((ts.size, self.dim**2))
        step = max(1, READ_BLOCK * 16 // self.dim**2)
        for lo in range(0, ts.size, step):
            t, s = ts[lo:lo + step], slots[lo:lo + step]
            diff = t[:, None] - self._times[s]
            # t - t_j is 0 exactly where t equals t_j bit for bit
            at_node = diff == 0.0
            node = at_node.any(axis=1)
            some = node.any()
            if some and node.all():
                out[lo:lo + step] = self._nodes[s, at_node.argmax(axis=1)]
                continue
            if some:
                diff[node] = 1.0
            c = _BARY_WEIGHTS / diff
            c /= c.sum(axis=1, keepdims=True)
            block = self._nodes[s, 0] - np.matmul(c[:, None, :], self._drops[s])[:, 0]
            if some:
                block[node] = self._nodes[s[node], at_node[node].argmax(axis=1)]
            if self._some_unresolved:
                exact = self._unresolved[s] & ~node
                if exact.any():
                    block[exact] = self.system.matrices(t[exact]).reshape(-1, self.dim**2)
            out[lo:lo + step] = block
        return out

    def _fn(self, t: float) -> np.ndarray:
        """The exact matrix at t, which `matrix` reads.  A method, not an
        attribute as on a MatrixSystem: a bound method held by the table
        would make a reference cycle, which keeps a finished run's table
        alive until the cyclic collector runs."""
        if t <= 0.0 and self._origin is not None:
            return self._origin.copy()
        k = int(t // LN2)
        slot = self._slot[k] if 0 <= k < self._slot.size else -1
        if slot >= 0:
            if t == self._mid_times[slot]:
                return self._mids[slot].reshape(self.dim, self.dim).copy()
            at_node = self._times[slot] == t
            if at_node.any():
                return self._nodes[slot, at_node.argmax()].reshape(self.dim, self.dim).copy()
        return self.system.matrix(t)

    def eff_blocks(self, t: float):
        return self.system.eff_blocks(t)


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
# the rows of _DP_A and _DP_ERR as arrays, for `_combine`
_DP_A_ROWS = tuple(np.array(row) for row in _DP_A)
_DP_ERR_ROW = np.array(_DP_ERR)
# the stage times a step reads, c = 1 first and then c_1 .. c_4: c_5 = c_6
# = 1, so one read serves the last stage and the first-same-as-last stage,
# which is the next step's first
_DP_C_READS = np.array(_DP_C[5:6] + _DP_C[1:5])[:, None]


def _combine(coeffs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] ks[j] in one einsum, which sums in j order from 0 as
    `sum(c * k for c, k in zip(coeffs, ks))` does, bit for bit."""
    return np.einsum("j,j...->...", coeffs, ks)


# the most steps all lanes plan for a round, each lane its share: a round
# reads five stage times per planned step and one per lane, so 128 steps
# read about 640 times, five READ_BLOCK gathers of a 4x4 table
ROUND_CAP = 128


class _Lane:
    """One lane of `propagate_lanes`: its output times and samples, and its
    own step control in Python scalars (time t, step h, the index of the
    next output time, the error tally and the factor by which its last
    accepted step grew h).  The samples at output times that s reaches are
    I, recorded here."""

    __slots__ = ("ts", "direction", "t", "h", "idx", "err", "out", "growth")

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
        self.idx = self._reached(s, 0)
        self.err = 0.0
        self.out = np.empty((len(self.ts), d, d))
        self.out[:self.idx] = np.eye(d)
        self.growth = 5.0

    def _reached(self, t: float, idx: int) -> int:
        """The index of the first output time not yet reached at t."""
        while (idx < len(self.ts)
               and self.direction * (self.ts[idx] - t) <= 1e-14):
            idx += 1
        return idx

    def advance(self, Y: np.ndarray, reached: int) -> bool:
        """Record Y at the output times before index `reached`, which the
        lane's t has reached; True while a time is left to reach."""
        self.out[self.idx:reached] = Y
        self.idx = reached
        return reached < len(self.ts)

    def plan(self, n: int) -> list:
        """At most n steps (t, h, reached) from the lane's t, each with the
        `_reached` index at its end: the trial step, capped at the next
        output time, and then the steps that the controller would cap at
        the next output time.  The plan stops at the last output time,
        before a step that would underflow (the trial step raises
        StepUnderflowError), and before a step longer than the one before
        times the lane's last growth factor, which the controller would
        likely not cap: a guess that saves planned steps and changes no
        step taken."""
        t, idx = self.t, self.idx
        h = self.direction * min(abs(self.h), abs(self.ts[idx] - t))
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise StepUnderflowError(f"step underflow at t={t:.6g} "
                                     f"(h={h:.3g}, target={self.ts[idx]:.6g})")
        steps = []
        while True:
            idx = self._reached(t + h, idx)
            steps.append((t, h, idx))
            if len(steps) == n or idx == len(self.ts):
                return steps
            t, prev = t + h, h
            h = self.direction * abs(self.ts[idx] - t)
            if abs(h) > abs(prev * self.growth) or abs(h) < 1e-14 * max(1.0, abs(t)):
                return steps


def propagate_lanes(system, lanes, rtol: float = 1e-10):
    """Propagate the fundamental matrix along several lanes in lockstep.

    A lane is a pair (s, t_eval): Phi(t, s) is sampled at every t in
    t_eval, which must be monotone starting at or after s (or at or before
    s for backward integration).  The integrator is an adaptive
    Dormand-Prince 5(4) pair with absolute tolerance rtol * 1e-2.  Steps
    are capped at the next output time, so samples are exact integration
    endpoints, not interpolants.

    A step is a linear map Y -> P Y, with P a function of t, h and the
    drift alone.  So each round, every unfinished lane plans its share of
    ROUND_CAP steps (`_Lane.plan`), and one `system.matrices` call, which a
    `DriftTable` reads from its window nodes, reads -K at each lane's t and
    at five stage times per planned step: c = 1 serves the step's last
    stage and the next step's first.  The stage arithmetic runs on the
    steps stacked as (S, d, d) with Y = I: G_1 = -K(t),
    G_i = -K_i (I + h sum_j a_ij G_j), P = I + h sum_j b_j G_j,
    G_7 = -K(t + h) P and E = h sum_j e_j G_j, each sum one `_combine`.
    Then each lane scans its plan: Y <- P Y, one matmul per step, the error
    estimates E Y, and its own step control in Python scalars
    (accept/reject, the h update and the error tally).  The scan ends at
    its first rejected step, at the lane's last output time, or after a
    step whose proposed |h| is shorter than the next planned step, which
    the controller would not cap; the rest is discarded.  A lane takes the
    steps it would take alone and its samples and error are bit for bit
    those of integrating it alone, whatever its plans; they differ from
    stage-form steps (Y_i = Y + h sum_j a_ij k_j) only by rounding.

    Returns (results, work): results holds, per lane, the array of Phi of
    shape (len(t_eval), d, d) and its error tally.  The tally is the sum
    of the max-abs local error estimates of the lane's accepted steps: a
    rough size, not a bound on the global error, which it can overstate
    or understate by two orders of magnitude.  work holds the `matrices`
    calls ("rounds"), the accepted and rejected steps and the planned steps
    that were not taken ("discarded"), each summed over the lanes, and the
    largest lane tally ("est_error").
    """
    if not RTOL_RANGE[0] <= rtol <= RTOL_RANGE[1]:
        raise ValueError("rtol must lie in [%g, %g]" % RTOL_RANGE)
    atol = rtol * 1e-2
    d = system.dim
    eye = np.eye(d)
    lanes = [_Lane(float(s), t_eval, d) for s, t_eval in lanes]
    work = {"rounds": 0, "accepted": 0, "rejected": 0, "discarded": 0}
    active = [lane for lane in lanes if lane.idx < len(lane.ts)]
    # each unfinished lane's state Y is row rows[i] of held
    held, rows = eye[None], [0] * len(active)
    while active:
        share = max(1, ROUND_CAP // len(active))
        plans = [lane.plan(share) for lane in active]
        # the steps stacked step-major, lanes by falling plan length: the
        # k-th steps of the counts[k] lanes that plan one from row starts[k]
        lens = [len(p) for p in plans]
        order = sorted(range(len(active)), key=lens.__getitem__, reverse=True)
        active, plans = [active[i] for i in order], [plans[i] for i in order]
        L, B = len(active), lens[order[0]]
        counts = [sum(n > k for n in lens) for k in range(B)]
        starts = [sum(counts[:k]) for k in range(B)]
        steps = np.array([p[k][:2] for k in range(B) for p in plans[:counts[k]]])
        S = len(steps)
        H = steps[:, 1, None, None]
        # Y per lane (rows 0 .. L - 1 of X) and after each step j (row
        # L + j), the row before each step, and -K in the same rows of
        # drift, followed by -K at t + c_i h, i = 1 .. 4, of every step
        X = np.empty((L + S, d, d))
        X[:L] = held[[rows[i] for i in order]]
        before = [L + starts[k - 1] + r if k else r for k in range(B)
                  for r in range(counts[k])]
        drift = -system.matrices(np.concatenate(
            [[lane.t for lane in active],
             (steps[:, 0] + _DP_C_READS * steps[:, 1]).ravel()]))
        work["rounds"] += 1
        end = drift[L:L + S]
        neg_ks = (*drift[L + S:].reshape(4, S, d, d), end)
        G = np.empty((7, S, d, d))
        G[0] = drift[before]
        for i in range(1, 6):
            np.matmul(neg_ks[i - 1], eye + H * _combine(_DP_A_ROWS[i], G[:i]),
                      out=G[i])
        P = eye + H * _combine(_DP_A_ROWS[6], G[:6])
        np.matmul(end, P, out=G[6])
        E = H * _combine(_DP_ERR_ROW, G)
        for k in range(B):
            lo, n = starts[k], counts[k]
            src = L + starts[k - 1] if k else 0
            np.matmul(P[lo:lo + n], X[src:src + n], out=X[L + lo:L + lo + n])
        Y_in, Y_out = X[before], X[L:]
        err_mat = E @ Y_in
        scale = atol + rtol * np.maximum(np.abs(Y_in), np.abs(Y_out))
        # the mean over each step's d x d entries, as np.mean sums and divides
        err_norms = np.sqrt(((err_mat / scale) ** 2).sum(axis=(1, 2)) / d**2).tolist()
        err_maxes = np.abs(err_mat).max(axis=(1, 2)).tolist()
        # each lane's own control, step by step, and the row of X that holds
        # each unfinished lane's state
        kept, rows = [], []
        for r, (lane, plan) in enumerate(zip(active, plans)):
            row, taken, on = r, 0, True
            for k, (_, h, reached) in enumerate(plan):
                if k and abs(lane.h) < abs(h):
                    break          # the controller would not cap this step
                lane.h = h
                taken += 1
                j = starts[k] + r
                err_norm = err_norms[j]
                if not err_norm <= 1.0:    # a NaN estimate rejects
                    lane.h = h * max(0.2, 0.9 * err_norm ** -0.2)
                    work["rejected"] += 1
                    break
                lane.t = lane.t + h
                lane.err += err_maxes[j]
                grow = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
                lane.growth = min(5.0, max(0.2, grow))
                lane.h = h * lane.growth
                work["accepted"] += 1
                row = L + j
                on = lane.advance(Y_out[j], reached)
            work["discarded"] += len(plan) - taken
            if on:
                kept.append(lane)
                rows.append(row)
        active, held = kept, X
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
