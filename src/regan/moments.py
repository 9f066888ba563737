"""Circle quadrature and spherical-moment tables for coefficient fields.

The operator's coefficient matrices live in four 2x2 blocks

    A11 = [[a, 0], [0, 1]],   A12 = [[b, c-1], [0, 0]],
    A21 = [[0, 0], [a-1, b]], A22 = [[1, 0], [0, c]],

and everything downstream is a circle mean of these blocks against small
monomials in theta = (cos phi, sin phi).  The uniform trapezoid rule is
spectrally accurate for these periodic integrands.  One sampler,
`_circle_samples`, evaluates and checks a, b, c on the nodes of a circle,
and one loop, `_refine`, doubles the node count until two refinements
agree; the moment vector, the block tables and `circle_mean` all go through
that loop.

All operations here are pure functions of immutable inputs and safe to
evaluate concurrently over radius grids.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coeff import CoefficientField
from .tails import EvaluationError


@dataclass(frozen=True)
class QuadratureSettings:
    base_nodes: int = 32
    max_nodes: int = 2**14
    rel_tol: float = 1e-13


DEFAULT_QUADRATURE = QuadratureSettings()

# positions that are identically zero in the assembled 4x4 moment matrix
MOMENT_MATRIX_ZEROS = ((0, 1), (1, 2), (2, 1), (3, 2))


def _finite(vals, phi: np.ndarray, what: str, where: str = "") -> np.ndarray:
    """vals broadcast to the nodes phi; EvaluationError names the first bad angle."""
    vals = np.broadcast_to(np.asarray(vals, dtype=float), phi.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise EvaluationError(f"{what} not finite at {where}phi={float(phi[bad][0]):.6g}")
    return vals


def _nodes(n: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(n) / n


def _circle_samples(field: CoefficientField, r: float, n: int):
    """cos phi, sin phi and the checked coefficients (a, b, c) at n uniform nodes."""
    phi = _nodes(n)
    cos, sin = np.cos(phi), np.sin(phi)
    abc = field.coefficients(r * cos, r * sin)
    return cos, sin, tuple(_finite(vals, phi, f"coefficient {name}", f"r={r:.6g}, ")
                           for name, vals in zip("abc", abc))


def _refine(sample: Callable, quad: QuadratureSettings) -> tuple:
    """Double the node count from quad.base_nodes until two samples agree.

    sample(n) returns a tuple of arrays; successive tuples agree when
    max|cur - prev| <= rel_tol * max(1, max|cur|) over all entries.  The
    finest sample is returned, also when the doubling stops at max_nodes.
    """
    n = quad.base_nodes
    prev = sample(n)
    while n < quad.max_nodes:
        n *= 2
        cur = sample(n)
        delta = max(float(np.max(np.abs(c - p))) for c, p in zip(cur, prev))
        scale = max(1.0, max(float(np.max(np.abs(c))) for c in cur))
        if delta <= quad.rel_tol * scale:
            return cur
        prev = cur
    return prev


def circle_mean(f: Callable, n_nodes: int = 16, *, rel_tol: float = 1e-13,
                max_nodes: int = 2**14) -> float:
    """Mean of f over the circle, phi in [0, 2pi), by uniform nodes.

    n_nodes must be a power of two >= 16.  The node count doubles until two
    successive values agree to rel_tol (relative, with floor 1) or the cap
    is reached; the converged value is returned.
    """
    if n_nodes < 16 or n_nodes & (n_nodes - 1):
        raise ValueError("n_nodes must be a power of two >= 16")

    def mean_at(n):
        phi = _nodes(n)
        return (_finite(f(phi), phi, "circle integrand").mean(),)

    return float(_refine(mean_at, QuadratureSettings(n_nodes, max_nodes, rel_tol))[0])


@dataclass(frozen=True)
class MomentVector:
    """The six second-harmonic circle moments of (a, b, c) at radius r."""

    r: float
    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.b1, self.b2, self.c1, self.c2])


@dataclass(frozen=True)
class BlockTable:
    """Circle means of the coefficient blocks against theta monomials at radius r.

    theta2_mean          mean A_ij theta_i theta_j               (2x2, ~ I)
    theta3_mean[k]       mean A_ij theta_k theta_i theta_j       (2x2, ~ 0)
    theta1_col[k]        mean A_ik theta_i                       (2x2, ~ 0)
    theta1_row[k]        mean A_ki theta_i                       (2x2, ~ 0)
    theta4               mean A_ij theta_i theta_j theta_k theta_l, blocks (k,l)
    theta2_col           mean A_il theta_i theta_k, blocks (k,l)
    theta2_row           mean A_ki theta_i theta_l, blocks (k,l)
    plain                mean A_kl, blocks (k,l)

    The 4x4 tables stack the 2x2 blocks as [[(1,1), (1,2)], [(2,1), (2,2)]].
    """

    r: float
    theta2_mean: np.ndarray
    theta3_mean: np.ndarray
    theta1_col: np.ndarray
    theta1_row: np.ndarray
    theta4: np.ndarray
    theta2_col: np.ndarray
    theta2_row: np.ndarray
    plain: np.ndarray


def _blocks(a, b, c) -> np.ndarray:
    """The four 2x2 coefficient blocks A_ij from node samples of a, b, c.

    Returns an array of shape (2, 2, 2, 2) + a.shape, indexed [i, j, row, col].
    """
    one = np.ones(a.shape)
    zero = np.zeros(a.shape)
    A = np.empty((2, 2, 2, 2) + a.shape)
    A[0, 0] = [[a, zero], [zero, one]]
    A[0, 1] = [[b, c - 1.0], [zero, zero]]
    A[1, 0] = [[zero, zero], [a - 1.0, b]]
    A[1, 1] = [[one, zero], [zero, c]]
    return A


def _second_harmonics(cos, sin, abc) -> np.ndarray:
    """(a1, a2, b1, b2, c1, c2) at one node level: means of each coefficient
    against sin^2 - cos^2 and -2 cos sin."""
    w2 = sin ** 2 - cos ** 2
    wx = cos * sin
    return np.array([m for v in abc
                     for m in (np.mean(v * w2), -2.0 * np.mean(v * wx))])


def _tables_at(field: CoefficientField, r: float, n: int) -> tuple:
    """The six moments and the eight block tables from one set of circle samples."""
    cos, sin, abc = _circle_samples(field, r, n)
    t = np.vstack([cos, sin])
    A = _blocks(*abc)

    theta2_mean = np.einsum("ijpqn,in,jn->pq", A, t, t) / n
    theta3_mean = np.einsum("ijpqn,kn,in,jn->kpq", A, t, t, t) / n
    theta1_col = np.einsum("ikpqn,in->kpq", A, t) / n
    theta1_row = np.einsum("kipqn,in->kpq", A, t) / n
    theta4_b = np.einsum("ijpqn,in,jn,kn,ln->klpq", A, t, t, t, t) / n
    theta2_col_b = np.einsum("ilpqn,in,kn->klpq", A, t, t) / n
    theta2_row_b = np.einsum("kipqn,in,ln->klpq", A, t, t) / n
    plain_b = np.mean(A, axis=-1)  # [k,l,p,q]

    def to4(blocks):  # blocks[k,l,p,q] -> 4x4
        return blocks.transpose(0, 2, 1, 3).reshape(4, 4)

    return (_second_harmonics(cos, sin, abc), theta2_mean, theta3_mean,
            theta1_col, theta1_row, to4(theta4_b), to4(theta2_col_b),
            to4(theta2_row_b), to4(plain_b))


def _converged_tables(field: CoefficientField, r: float,
                      quad: QuadratureSettings):
    """(six moments, eight block tables) at the first node level that agrees
    with the previous one in every entry."""
    m6, *tabs = _refine(lambda n: _tables_at(field, r, n), quad)
    return m6, tuple(tabs)


def moment_vector(field: CoefficientField, r: float,
                  quad: QuadratureSettings = DEFAULT_QUADRATURE) -> MomentVector:
    """Second-harmonic circle moments of a, b, c at radius r.

    a1 = mean a*(theta2^2 - theta1^2), a2 = -2 mean a*theta1*theta2, and
    likewise for b and c.  Convergence is tested on the six moments alone.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError("radius must lie in (0, 1]")
    m6, = _refine(lambda n: (_second_harmonics(*_circle_samples(field, r, n)),), quad)
    return MomentVector(r, *map(float, m6))


def moment_matrix(m: MomentVector) -> np.ndarray:
    """Assemble the 4x4 drift matrix from the six second-harmonic moments."""
    return np.array([
        [m.a1, 0.0, m.b1, m.c1],
        [m.a2, m.b2, 0.0, m.c2],
        [m.a2, 0.0, m.b2, m.c2],
        [-m.a1, -m.b1, 0.0, -m.c1],
    ])


def block_table(field: CoefficientField, r: float,
                quad: QuadratureSettings = DEFAULT_QUADRATURE) -> BlockTable:
    """All quadrature blocks of the coefficient matrices at radius r."""
    if not 0.0 < r <= 1.0:
        raise ValueError("radius must lie in (0, 1]")
    _, tabs = _converged_tables(field, r, quad)
    return BlockTable(r, *tabs)


def moment_matrix_residual(field: CoefficientField, r: float,
                           quad: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Max-entry residual between the assembled moment matrix and plain - 2*theta2_col.

    The two sides are algebraically identical, so the residual is pure
    quadrature error; it cross-checks two independent computation paths.
    """
    m6, tabs = _converged_tables(field, r, quad)
    R = moment_matrix(MomentVector(r, *map(float, m6)))
    theta2_col, plain = tabs[5], tabs[7]
    return float(np.max(np.abs(R - (plain - 2.0 * theta2_col))))


@dataclass(frozen=True)
class ForcingFunctionals:
    """Circle functionals of a remainder field W entering the radial systems.

    bound_ok is None when W fails the zero-mean / zero-first-moment
    conditions on the sampled circle (the bound is then not asserted).
    """

    r: float
    Lambda: np.ndarray          # 2-vector
    P: np.ndarray               # (2, 2): P_k components
    Q: np.ndarray               # (2, 2): Q_k components
    grad_mean: float            # mean |grad W| over the circle
    bound_rhs: float            # omega(r) * grad_mean
    projection_residual: float
    bound_ok: bool | None


def forcing_functionals(field: CoefficientField, r: float, w_field,
                        n_nodes: int = 256,
                        projection_tol: float = 1e-8) -> ForcingFunctionals:
    """Circle means Lambda, P_k, Q_k of the coefficient blocks against grad W.

    `w_field` provides value(x, y) -> (2, ...) and gradient(x, y) ->
    (2, 2, ...) with entries d W_p / d x_j at index [p, j].
    """
    cos, sin, abc = _circle_samples(field, r, n_nodes)
    x, y = r * cos, r * sin
    t = np.vstack([cos, sin])
    A = _blocks(*abc)                                    # [i,j,p,q,n]
    W = np.asarray(w_field.value(x, y), dtype=float)     # [p,n]
    G = np.asarray(w_field.gradient(x, y), dtype=float)  # [p,j,n]

    lam = np.einsum("ijpqn,in,qjn->p", A, t, G) / n_nodes
    P = np.einsum("ijpqn,in,kn,qjn->kp", A, t, t, G) / n_nodes
    Q = np.einsum("kjpqn,qjn->kp", A, G) / n_nodes

    scale = max(1.0, float(np.max(np.abs(W))))
    moments = [float(np.mean(W[p])) for p in range(2)]
    moments += [float(np.mean(W[p] * t[i])) for p in range(2) for i in range(2)]
    proj_res = max(abs(v) for v in moments) / scale
    grad_mean = float(np.mean(np.sqrt(np.einsum("pjn,pjn->n", G, G))))
    rhs = float(field.modulus(r)) * grad_mean

    if proj_res > projection_tol:
        bound_ok = None
    else:
        norms = [float(np.linalg.norm(lam))]
        norms += [float(np.linalg.norm(P[k])) for k in range(2)]
        norms += [float(np.linalg.norm(Q[k])) for k in range(2)]
        bound_ok = bool(max(norms) <= rhs + 1e-10)
    return ForcingFunctionals(r, lam, P, Q, grad_mean, rhs, proj_res, bound_ok)


def write_moment_csv(path, field: CoefficientField, radii,
                     quad: QuadratureSettings = DEFAULT_QUADRATURE) -> None:
    """Moment table as CSV: r, a1, a2, b1, b2, c1, c2 (17 significant digits)."""
    rows = ["r,a1,a2,b1,b2,c1,c2"]
    for r in radii:
        m = moment_vector(field, float(r), quad)
        rows.append(",".join("%.17g" % v for v in
                             (m.r, m.a1, m.a2, m.b1, m.b2, m.c1, m.c2)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
