"""Desk-scale finite-difference diagnostics for the nondivergence operator.

A Dirichlet problem is solved on a uniform Cartesian grid over a square
[-L, L]^2 contained in the unit disk (the origin is a grid node, so no
polar singularity enters).  The gradient field is decomposed on circles
into circle mean + first-moment part + higher-harmonic remainder, and the
profiles feed regularity indicators that mirror the dynamical-system
predictions.  Indicators are always read against a discretization floor,
the same indicators of a constant-coefficient control run at the same mesh
width and radii (`profile_radii`): a finite grid cannot see below its own
resolution.

No matrix is stored: the nine-point stencil is applied by array slices
(`_assemble`), and that one function gives the GMRES operator, the
right-hand side and the residual check.  Every stencil is solved one way:
GMRES preconditioned by the exact inverse of the plain 5-point Laplacian, a
type-I discrete sine transform (`_laplacian_solve`; Concus & Golub 1973).
A field's stencil is that Laplacian plus a bounded perturbation, so the
iteration count does not grow as h shrinks; the control's stencil is the
Laplacian itself and converges in one iteration.

The GMRES is this module's own (`_gmres`), on numpy: importing
`scipy.sparse.linalg` for its `gmres` cost about 26 MB of peak resident
memory, a quarter of a pde run's peak at h = 2^-8 (105 against 79 MB).
It repeats scipy's operation order, so its iterates and residual history
are bit for bit scipy's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coeff import CoefficientField
from .dynsys import FullSystem, propagate_dense
from .tails import INCONCLUSIVE


class SolveError(RuntimeError):
    """The linear solve did not reach the requested residual; history holds
    the GMRES residual history (see `GridSolution`)."""

    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.history = history


class EllipticityError(RuntimeError):
    """The discriminant 4ac - b^2 failed to be positive at a grid node."""


# half side of the square [-L, L]^2 of the solves: inside the unit disk, and
# 2L = 11/8 splits into 11 * 2^(k-3) cells of width 2^-k, even from k = 4
HALF_WIDTH = 0.6875

# max-norm residual of the solve, relative to 1 + max |rhs|, above which
# the solve raises SolveError; GMRES lands far below it (about 1e-15 to
# 1e-14 at h = 2^-8)
SOLVER_TOL = 1e-10

# GMRES: the relative 2-norm residual it stops at, and its iteration cap,
# one cycle with no restart.  The perturbed fields, up to |g| = 1/2, need
# 10 to 23 iterations at every h from 2^-6 to 2^-9; the cap bounds the
# Krylov basis, GMRES_MAX_ITER + 1 vectors of the unknowns, of which only
# the rows of the iterations used are ever written (and so resident).
GMRES_RTOL = 1e-14
GMRES_MAX_ITER = 60

# `decompose`: samples per circle, radii per annulus r < |x| < 2r, and the
# exponent p > 2 of the annulus L^p means
CIRCLE_NODES = 256
ANNULUS_RADII = 17
ANNULUS_P = 4.0

# `profile_radii`: radii per halving of r
RADII_PER_OCTAVE = 4


# ---------------------------------------------------------------------------
# Boundary data library.  All entries are harmonic polynomials, so the
# constant-coefficient control solution is known in closed form.
# ---------------------------------------------------------------------------

BOUNDARY_LIBRARY: dict[str, Callable] = {
    "quadratic_saddle": lambda x, y: x**2 - y**2,
    "quadratic_cross": lambda x, y: x * y,
    "harmonic_cubic": lambda x, y: x**3 - 3.0 * x * y**2,
    "harmonic_quartic": lambda x, y: x**4 - 6.0 * x**2 * y**2 + y**4,
    # first-harmonic-rich: excites the circle mean and the first moments,
    # with quartic content so the control run has a genuine h^2 error floor
    "v_rich_mix": lambda x, y: x + x**2 - y**2
    + 0.4 * (x**4 - 6.0 * x**2 * y**2 + y**4),
    # second-harmonic-rich: the gradient is a pure second harmonic
    "w_rich_mix": lambda x, y: x**3 - 3.0 * x * y**2 + 0.25 * (x**2 - y**2),
}


@dataclass
class GridSolution:
    """Nodal solution u[ix, iy] on x = -L + ix*h, y = -L + iy*h, L = HALF_WIDTH.

    residual_norm is the max-norm residual of the h^2-scaled stencil
    equations (the algebraic system actually solved), read as the stencil
    applied to u, boundary ring included.  residual_history holds one entry
    per GMRES iteration k, |M (rhs - A u_k)|_2 / |rhs|_2 for the
    preconditioner M and the k-th iterate u_k, as the Givens rotations read
    it off the least-squares problem; it is empty for zero boundary data.
    """

    h: float
    u: np.ndarray
    residual_norm: float
    residual_history: list

    @property
    def n_cells(self) -> int:
        return self.u.shape[0] - 1

    def axis(self) -> np.ndarray:
        return -HALF_WIDTH + self.h * np.arange(self.u.shape[0])


def cell_count(h: float) -> int:
    """Cells across [-HALF_WIDTH, HALF_WIDTH] at mesh width h.

    ValueError unless h splits the side into an even number, at least 8,
    of cells, so that the origin is a grid node.
    """
    n = 2.0 * HALF_WIDTH / h
    N = int(round(n))
    if abs(n - N) > 1e-9 or N < 8 or N % 2:
        raise ValueError(f"mesh width {h} must divide {2 * HALF_WIDTH} into an "
                         f"even number (at least 8) of cells (got {n:.6g})")
    return N


def _assemble(field: CoefficientField, h: float, xs: np.ndarray):
    """The h^2-scaled nine-point stencil of a u_xx + b u_xy + c u_yy on the
    interior nodes of the grid xs x xs, N = xs.size - 1, kept as the
    (N - 1)^2 weights (a, b/4, c, -2(a + c)), indexed [ix - 1, iy - 1]; the
    origin node carries (a, b, c) = (1, 0, 1).  Returns the weights and
    apply(U), the stencil applied by array slices to an (N + 1)^2 grid U.
    """
    N = xs.size - 1
    X, Y = np.meshgrid(xs[1:N], xs[1:N], indexing="ij")
    a, b, c = (np.asarray(v, dtype=float).copy() for v in field.coefficients(X, Y))
    origin = (np.abs(X) < 0.5 * h) & (np.abs(Y) < 0.5 * h)
    a[origin], b[origin], c[origin] = 1.0, 0.0, 1.0
    disc = 4.0 * a * c - b * b
    if np.min(disc) <= 0.0:
        k = np.unravel_index(np.argmin(disc), disc.shape)
        raise EllipticityError(
            f"4ac - b^2 = {disc[k]:.3g} <= 0 at node ({X[k]:.6g}, {Y[k]:.6g})")
    b4, d = 0.25 * b, -2.0 * (a + c)

    def apply(U: np.ndarray) -> np.ndarray:
        return (a * (U[2:, 1:-1] + U[:-2, 1:-1]) + c * (U[1:-1, 2:] + U[1:-1, :-2])
                + b4 * (U[2:, 2:] + U[:-2, :-2] - U[2:, :-2] - U[:-2, 2:])
                + d * U[1:-1, 1:-1])

    return (a, b4, c, d), apply


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Type-I discrete sine transform along axis, unnormalized:
    X_k = sum_j x_j sin(pi j k / N) for j, k = 1 .. N - 1, read off
    `numpy.fft.rfft` of the odd extension (0, x, 0, -reversed x) of
    length 2N."""
    x = np.moveaxis(x, axis, 0)
    n = x.shape[0]
    ext = np.zeros((2 * n + 2,) + x.shape[1:])
    ext[1:n + 1] = x
    ext[n + 2:] = -x[::-1]
    out = -0.5 * np.fft.rfft(ext, axis=0)[1:n + 1].imag
    return np.moveaxis(out, 0, axis)


def _laplacian_solve(f: np.ndarray) -> np.ndarray:
    """Exact inverse of the h^2-scaled 5-point Laplacian on the (N - 1)^2
    interior nodes with zero Dirichlet data, for f ordered ix-major,
    (ix - 1) * (N - 1) + (iy - 1).

    The DST-I diagonalizes the operator (Buzbee, Golub & Nielson 1970):
    transform along both axes, divide by lambda_j + lambda_k with
    lambda_k = -4 sin^2(pi k / 2N), transform back and scale by (2/N)^2.
    """
    n = math.isqrt(f.size)
    N = n + 1
    lam = -4.0 * np.sin(0.5 * math.pi * np.arange(1, N) / N) ** 2
    F = _dst1(_dst1(f.reshape(n, n), 0), 1)
    U = _dst1(_dst1(F / (lam[:, None] + lam[None, :]), 0), 1)
    return (U * (2.0 / N) ** 2).ravel()


def _givens(f: float, g: float) -> tuple:
    """(c, s, r) with c f + s g = r and c g - s f = 0, as LAPACK's `dlartg`
    computes them for |f| and |g| in its safe range (squares neither under-
    nor overflow), which the O(1) Hessenberg entries of `_gmres` stay in."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), abs(g)
    d = math.sqrt(f * f + g * g)
    r = math.copysign(d, f)
    return abs(f) / d, g / r, r


def _gmres(matvec: Callable, psolve: Callable, b: np.ndarray):
    """One cycle of left-preconditioned GMRES for A x = b from x = 0
    (Saad & Schultz 1986): modified Gram-Schmidt on the Krylov vectors of
    M A, Givens rotations on the Hessenberg columns, at most
    min(GMRES_MAX_ITER, b.size) iterations, stopping once the preconditioned
    residual |M (b - A x)| is at most GMRES_RTOL |M b|.  matvec applies A,
    psolve applies M.  Returns x and the history of |M (b - A x)| / |b|,
    one entry per iteration.

    The operations, and so the rounding, are those of
    `scipy.sparse.linalg.gmres` (scipy 1.17) with rtol=GMRES_RTOL, atol=0,
    restart=GMRES_MAX_ITER, maxiter=1 and callback_type="pr_norm", except
    that M b is computed once and the closing residual b - A x is left to
    the caller.
    """
    n = b.size
    b_norm = np.linalg.norm(b)
    if b_norm == 0:
        return np.zeros(n), []
    m = min(GMRES_MAX_ITER, n)
    v = np.empty((m + 1, n))                  # rows written only as used
    hess = np.zeros((m, m + 1))               # column j stored as row j
    s_rhs = np.zeros(m + 1)
    eps = np.finfo(float).eps

    v[0] = psolve(b)
    s_rhs[0] = np.linalg.norm(v[0])
    # scipy's bound, through atol = rtol |b|: the quotient need not be rtol
    ptol = s_rhs[0] * min(1.0, GMRES_RTOL * b_norm / b_norm)
    v[0] *= 1 / s_rhs[0]
    rotations, history = [], []
    for col in range(m):
        w = psolve(matvec(v[col]))
        h0 = np.linalg.norm(w)
        for k in range(col + 1):
            hess[col, k] = np.dot(v[k], w)
            w -= hess[col, k] * v[k]
        h1 = np.linalg.norm(w)
        breakdown = h1 <= eps * h0           # w in the span: x is exact
        if not breakdown:
            hess[col, col + 1] = h1
            v[col + 1] = w
            v[col + 1] *= 1 / h1
        for k, (c, s) in enumerate(rotations):
            n0, n1 = hess[col, k], hess[col, k + 1]
            hess[col, k], hess[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
        c, s, r = _givens(hess[col, col], hess[col, col + 1])
        rotations.append((c, s))
        hess[col, col], hess[col, col + 1] = r, 0.0
        s_rhs[col + 1] = -s * s_rhs[col]
        s_rhs[col] *= c
        presid = abs(s_rhs[col + 1])
        history.append(presid / b_norm)
        if presid <= ptol or breakdown:
            break

    # back substitution on the triangle; a zero pivot zeroes its entry
    if hess[col, col] == 0:
        s_rhs[col] = 0
    y = s_rhs[:col + 1]
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= hess[k, k]
            y[:k] -= y[k] * hess[k, :k]
    if y[0] != 0:
        y[0] /= hess[0, 0]
    x = np.zeros(n)                           # x0 = 0: no -0.0 entries
    x += y @ v[:col + 1]
    return x, history


def solve_dirichlet(field: CoefficientField, h: float, boundary) -> GridSolution:
    """Nine-point finite-difference solve of a u_xx + b u_xy + c u_yy = 0.

    Centered second differences for u_xx and u_yy, the four-point cross
    stencil for u_xy (no upwinding: the coefficients are near-identity).
    The mesh width must pass `cell_count`, so the origin is a node; it
    carries the normalized values (1, 0, 1).  boundary is a callable or a
    key of BOUNDARY_LIBRARY.

    data_fn is read once, on the 4N nodes of the boundary ring, into a grid
    that is zero inside; rhs is minus the stencil of that grid, on the
    interior unknowns ordered ix-major.  A u = rhs is solved by `_gmres` from
    u = 0, its matvec the stencil of u padded with zeros, preconditioned by
    `_laplacian_solve`, to the relative residual GMRES_RTOL within
    GMRES_MAX_ITER iterations.  The stencil of the full grid solution is
    then A u - rhs; a max-norm above SOLVER_TOL (relative to 1 + max |rhs|)
    raises SolveError with the residual history.
    """
    N = cell_count(h)
    try:
        data_fn = boundary if callable(boundary) else BOUNDARY_LIBRARY[boundary]
    except KeyError:
        raise ValueError(f"unknown boundary data id {boundary!r}") from None

    xs = -HALF_WIDTH + h * np.arange(N + 1)
    _, apply = _assemble(field, h, xs)
    u, padded = np.zeros((N + 1, N + 1)), np.zeros((N + 1, N + 1))
    ring = np.ones(u.shape, dtype=bool)
    ring[1:N, 1:N] = False
    ix, iy = np.nonzero(ring)
    u[ix, iy] = data_fn(xs[ix], xs[iy])
    rhs = -apply(u).ravel()

    def matvec(v):
        padded[1:N, 1:N] = v.reshape(N - 1, N - 1)
        return apply(padded).ravel()

    u_int, history = _gmres(matvec, _laplacian_solve, rhs)
    u[1:N, 1:N] = u_int.reshape(N - 1, N - 1)
    residual = float(np.max(np.abs(apply(u))))
    if residual > SOLVER_TOL * (float(np.max(np.abs(rhs))) + 1.0):
        raise SolveError(f"GMRES stalled after {len(history)} iterations at "
                         f"max-norm residual {residual:.3g}", history)
    return GridSolution(h, u, residual, history)


def gradient_field(sol: GridSolution) -> np.ndarray:
    """Nodal gradient (u_x, u_y): centered interior, one-sided on the edge ring."""
    ux = np.gradient(sol.u, sol.h, axis=0, edge_order=2)
    uy = np.gradient(sol.u, sol.h, axis=1, edge_order=2)
    return np.stack([ux, uy])


def hessian_quotients(sol: GridSolution, steps) -> dict:
    """Second central difference quotients of u at the origin.

    steps are node multiples of h (>= 2).  Cauchy differences between
    consecutive steps indicate convergence of the discrete Hessian.
    """
    N = sol.n_cells
    i0 = N // 2
    rows = []
    for step in steps:
        m = int(step)
        if m != step:
            raise ValueError("steps are node multiples of h (integers)")
        if m < 2 or i0 + m > N:
            raise ValueError(f"step {step} outside [2h, L]")
        s = m * sol.h
        u = sol.u
        qxx = (u[i0 + m, i0] - 2.0 * u[i0, i0] + u[i0 - m, i0]) / s**2
        qyy = (u[i0, i0 + m] - 2.0 * u[i0, i0] + u[i0, i0 - m]) / s**2
        qxy = (u[i0 + m, i0 + m] - u[i0 + m, i0 - m]
               - u[i0 - m, i0 + m] + u[i0 - m, i0 - m]) / (4.0 * s**2)
        rows.append((s, float(qxx), float(qxy), float(qyy)))
    quot = np.array([[r[1], r[2], r[3]] for r in rows])
    cauchy = (np.max(np.abs(np.diff(quot, axis=0)), axis=1).tolist()
              if len(rows) > 1 else [])
    return {"rows": rows, "cauchy_differences": cauchy}


def bilinear_sample(values: np.ndarray, h: float, x, y) -> np.ndarray:
    """Bilinear interpolation of nodal values[ix, iy] on the solve grid at
    points (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n_max = values.shape[0] - 2
    gx = np.clip((x + HALF_WIDTH) / h, 0.0, values.shape[0] - 1.0)
    gy = np.clip((y + HALF_WIDTH) / h, 0.0, values.shape[0] - 1.0)
    i = np.clip(gx.astype(int), 0, n_max)
    j = np.clip(gy.astype(int), 0, n_max)
    fx, fy = gx - i, gy - j
    return ((1 - fx) * (1 - fy) * values[i, j]
            + fx * (1 - fy) * values[i + 1, j]
            + (1 - fx) * fy * values[i, j + 1]
            + fx * fy * values[i + 1, j + 1])


@dataclass
class DecompositionProfile:
    """Per-radius circle decomposition of a gradient field.

    V rows hold the 4-vector (V1_1, V1_2, V2_1, V2_2); rVprime is its
    derivative against log r.  Mp_gradW and M1p_W are annulus L^p means
    (p = ANNULUS_P) of the higher-harmonic remainder over r < |x| < 2r.
    """

    radii: np.ndarray
    U0: np.ndarray
    V: np.ndarray
    rVprime: np.ndarray
    Mp_gradW: np.ndarray
    M1p_W: np.ndarray
    projection_residual: np.ndarray
    reconstruction_residual: np.ndarray


def _circle_split(U, h, rho, phi):
    """Mean / first-moment / remainder split of U on the circles of radii rho.

    All circles are sampled in one `bilinear_sample` call per component and
    the means run along the contiguous node axis.  Returns U0, V1 and V2 of
    shape (2, len(rho)), the remainder W of shape (2, len(rho), nodes), and
    the projection and reconstruction residuals of the first circle.
    """
    ct, st = np.cos(phi), np.sin(phi)
    x, y = rho[:, None] * ct, rho[:, None] * st
    vals = np.stack([bilinear_sample(U[0], h, x, y),
                     bilinear_sample(U[1], h, x, y)])
    u0 = vals.mean(axis=-1)
    v1 = 2.0 * (vals * ct).mean(axis=-1) / rho
    v2 = 2.0 * (vals * st).mean(axis=-1) / rho
    w = vals - u0[..., None] - v1[..., None] * x - v2[..., None] * y
    vals0, w0 = vals[:, 0], w[:, 0]
    scale = max(float(np.max(np.abs(vals0))), 1e-300)
    moments = [np.abs(w0.mean(axis=1)), np.abs((w0 * ct).mean(axis=1)),
               np.abs((w0 * st).mean(axis=1))]
    proj_res = float(max(np.max(m) for m in moments)) / scale
    recon = vals0 - (u0[:, :1] + v1[:, :1] * x[0] + v2[:, :1] * y[0] + w0)
    recon_res = float(np.mean(np.abs(recon)))
    return u0, v1, v2, w, proj_res, recon_res


def decompose(U: np.ndarray, h: float, radii) -> DecompositionProfile:
    """Circle decomposition U = U0(r) + V1(r) x + V2(r) y + W over a radius list.

    Circle values come from bilinear interpolation; radii must stay inside
    (4h, L/2) so interpolation is trustworthy and the annulus r < |x| < 2r
    fits in the grid.  Each radius r is split once, together with the
    ANNULUS_RADII circles of its annulus (np.geomspace(r, 2r), whose first
    circle is r itself): U0, V and the residuals are read from the circle
    r, and the annulus L^p means of W from all of them.  W has zero mean
    and first moments on every circle by construction; the achieved
    residuals are recorded.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    lo, hi = 4.0 * h, HALF_WIDTH / 2.0
    if np.any(radii <= lo) or np.any(radii >= hi):
        bad = radii[(radii <= lo) | (radii >= hi)][0]
        raise ValueError(f"radius {bad:.6g} outside the reliable band "
                         f"({lo:.6g}, {hi:.6g})")
    phi = 2.0 * math.pi * np.arange(CIRCLE_NODES) / CIRCLE_NODES
    n = radii.size
    U0 = np.empty((n, 2))
    V = np.empty((n, 4))
    Mp_gradW = np.empty(n)
    M1p_W = np.empty(n)
    proj = np.empty(n)
    recon = np.empty(n)
    dphi = 2.0 * math.pi / CIRCLE_NODES

    for k, r in enumerate(radii):
        # one 1-D rho per annulus: np.gradient takes the radii of one axis
        rho = np.geomspace(r, 2.0 * r, ANNULUS_RADII)
        u0, v1, v2, Wpatch, proj[k], recon[k] = _circle_split(U, h, rho, phi)
        U0[k] = u0[:, 0]
        V[k] = np.concatenate([v1[:, 0], v2[:, 0]])

        dW_drho = np.gradient(Wpatch, rho, axis=1, edge_order=2)
        dW_dphi = (np.roll(Wpatch, -1, axis=2) - np.roll(Wpatch, 1, axis=2)) / (2.0 * dphi)
        grad_sq = dW_drho**2 + (dW_dphi / rho[None, :, None]) ** 2
        grad_abs = np.sqrt(grad_sq.sum(axis=0))
        w_abs = np.sqrt((Wpatch**2).sum(axis=0))

        w_rho = np.zeros(ANNULUS_RADII)
        w_rho[1:-1] = 0.5 * (rho[2:] - rho[:-2])
        w_rho[0] = 0.5 * (rho[1] - rho[0])
        w_rho[-1] = 0.5 * (rho[-1] - rho[-2])
        area_w = rho * w_rho
        area = area_w.sum()

        def annulus_mean_p(f):
            mean = float((np.mean(f**ANNULUS_P, axis=1) @ area_w) / area)
            return mean ** (1.0 / ANNULUS_P)

        Mp_gradW[k] = annulus_mean_p(grad_abs)
        M1p_W[k] = r * Mp_gradW[k] + annulus_mean_p(w_abs)

    log_r = np.log(radii)
    rVprime = np.gradient(V, log_r, axis=0, edge_order=2)
    return DecompositionProfile(radii, U0, V, rVprime, Mp_gradW, M1p_W,
                                proj, recon)


def profile_radii(h: float) -> np.ndarray:
    """The decomposition radii at mesh width h, ascending: from 0.99 L/2 down
    by the factor 2^(-1/RADII_PER_OCTAVE) while above 1.01 * 4h, so strictly
    inside the band (4h, L/2) of `decompose`."""
    out, r = [], HALF_WIDTH / 2.0 * 0.99
    while r > 4.0 * h * 1.01:
        out.append(r)
        r *= 2.0 ** (-1.0 / RADII_PER_OCTAVE)
    return np.array(out[::-1])


# ---------------------------------------------------------------------------
# Regularity indicators and the dynamics cross-check.
# ---------------------------------------------------------------------------

BOUNDED = "bounded"
GROWING = "growing"
VANISHING = "vanishing"
PERSISTENT = "persistent"


def _trend_verdict(values, floors, grow_word=GROWING, ok_word=BOUNDED):
    """Classify the four smallest-radius samples (ordered larger r first)."""
    v = np.asarray(values, dtype=float)
    fl = np.asarray(floors, dtype=float)
    margin = 3.0 * fl + 1e-12
    if np.all(v <= margin):
        return ok_word
    rising = all(v[i + 1] > v[i] + margin[i + 1] for i in range(len(v) - 1))
    if rising and v[-1] > 2.0 * max(v[0], margin[0]):
        return grow_word
    if v[-1] <= 1.25 * v[0] + margin[-1]:
        return ok_word
    return INCONCLUSIVE


MIN_PROFILE_RADII = 8

# the (growing, ok) verdict words of an indicator, where not (GROWING, BOUNDED)
_WORDS = {"differentiability": (PERSISTENT, VANISHING)}


def _indicators(prof: DecompositionProfile, modulus) -> dict:
    """The four indicators of a profile per radius, by verdict name."""
    rvp = np.linalg.norm(prof.rVprime, axis=1)
    omega_r = np.asarray(modulus(prof.radii), dtype=float) * prof.radii
    safe = np.where(omega_r > 1e-300, omega_r, np.inf)
    return {
        "lipschitz": np.linalg.norm(prof.V, axis=1) + rvp,
        "differentiability": rvp,
        "w_growth": prof.M1p_W / safe,
        "u0_growth": np.linalg.norm(prof.U0 - prof.U0[0], axis=1) / safe,
    }


def regularity_diagnostics(prof: DecompositionProfile, modulus,
                           control: Optional[DecompositionProfile] = None) -> dict:
    """Threshold verdicts for the regularity indicators of a profile.

    The indicators are |V| + |r V'| ("lipschitz"), |r V'|
    ("differentiability"), M1p(W, r) / (omega(r) r) ("w_growth") and
    |U0(r) - U0(r_min)| / (omega(r) r) ("u0_growth"), the ratios 0 where
    omega(r) r <= 1e-300.  Requires at least MIN_PROFILE_RADII radii.
    Trends are judged on the 4 smallest radii against three times the
    floor: the same indicators of the `control` profile (0 without one),
    except that the floor of "lipschitz" is the control's |r V'|;
    everything below that is resolution, not signal.  Returns the verdict
    per indicator.
    """
    n = prof.radii.size
    if n < MIN_PROFILE_RADII:
        raise ValueError(f"profile must cover at least {MIN_PROFILE_RADII} radii")
    values = _indicators(prof, modulus)
    if control is None:
        floors = dict.fromkeys(values, np.zeros(n))
    elif np.array_equal(control.radii, prof.radii):
        floors = _indicators(control, modulus)
        floors["lipschitz"] = floors["differentiability"]
    else:
        raise ValueError("the control profile must have the radii of the profile")
    # four smallest radii, ordered from larger to smaller r
    sel = slice(3, None, -1)
    return {key: _trend_verdict(v[sel], floors[key][sel],
                                *_WORDS.get(key, (GROWING, BOUNDED)))
            for key, v in values.items()}


def compare_with_dynamics(prof: DecompositionProfile, system: FullSystem,
                          rtol: float = 1e-10) -> dict:
    """Propagate the measured (V, rV') inward and compare against the profile.

    The state at the largest radius is lifted to the 8-vector (V, U) with
    the exact elimination blocks (remainder forcing dropped) and pushed to
    each smaller radius; the table reports per-radius deviation of the
    predicted V relative to the measured V scale.
    """
    order = np.argsort(-prof.radii)              # largest radius first
    radii = prof.radii[order]
    V_meas = prof.V[order]
    rVp = prof.rVprime[order]
    ts = -np.log(radii)
    t0 = float(ts[0])
    v0 = V_meas[0]
    vt0 = -rVp[0]
    a_eff, b_eff, _, _ = system.eff_blocks(t0)
    u0 = -a_eff @ vt0 + b_eff @ v0
    y0 = np.concatenate([v0, u0])
    phis, _ = propagate_dense(system, t0, ts, rtol)
    V_pred = np.array([phi @ y0 for phi in phis])[:, :4]
    scale = max(float(np.max(np.linalg.norm(V_meas, axis=1))), 1e-300)
    dev = np.linalg.norm(V_pred - V_meas, axis=1)
    back = np.argsort(radii)
    return {
        "radii": radii[back].tolist(),
        "relative_deviation": (dev[back] / scale).tolist(),
    }


# ---------------------------------------------------------------------------
# Exports.
# ---------------------------------------------------------------------------


def write_profile_csv(path, prof: DecompositionProfile) -> None:
    cols = ("r,U0_1,U0_2,V1_1,V1_2,V2_1,V2_2,"
            "rVp_1,rVp_2,rVp_3,rVp_4,Mp_W,M1p_W")
    rows = [cols]
    for k in range(prof.radii.size):
        vals = [prof.radii[k], *prof.U0[k], *prof.V[k], *prof.rVprime[k],
                prof.Mp_gradW[k], prof.M1p_W[k]]
        rows.append(",".join("%.17g" % v for v in vals))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def write_solution_csv(path, sol: GridSolution) -> None:
    """Nodal values, row-major by y then x, after a geometry header."""
    header = f"# L={HALF_WIDTH!r} h={sol.h!r} ordering=row-major-y-then-x\nu\n"
    vals = sol.u.T.ravel().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + ("%.17g\n" * len(vals)) % tuple(vals))
