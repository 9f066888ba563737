"""Circle quadrature and spherical-moment tables for coefficient fields.

The operator's coefficient matrices live in four 2x2 blocks

    A11 = [[a, 0], [0, 1]],   A12 = [[b, c-1], [0, 0]],
    A21 = [[0, 0], [a-1, b]], A22 = [[1, 0], [0, c]],

and everything downstream is a circle mean of these blocks against small
monomials in theta = (cos phi, sin phi).  The uniform trapezoid rule is
spectrally accurate for these periodic integrands.  One sampler,
`_circle_samples`, evaluates and checks a, b, c on the nodes of a batch of
circles, and one loop, `_refine`, doubles the node count
per radius until two refinements agree; the moment vectors and the block
tables both go through that loop.  `_MOMENT_GATHER` declares where the
six moments sit in the 4x4 drift matrix.

`moment_vectors` and `block_tables` are the batched paths of the six
moments and of the block tables: they evaluate the coefficients once per
node level on a (radii x nodes) grid, in calls of at most `_CHUNK_POINTS`
points, and only the radii that have not converged go on to the next
level.  Each radius gets the node count and, bit for bit, the values it
gets when evaluated alone; `moment_vector` and `block_table` are the
one-radius cases.

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

# coefficient points per call of the batched sampler: a batch never holds a
# larger grid than one radius at the default node cap
_CHUNK_POINTS = 2**14


def _nodes(n: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(n) / n


def _circle_samples(field: CoefficientField, radii: np.ndarray, n: int):
    """cos phi, sin phi and the checked coefficients a, b, c at n uniform
    nodes on each circle of a 1-D array of radii.

    The coefficients come from one call on the (radii x nodes) grid and are
    stacked into one array of shape (3, len(radii), n); EvaluationError
    names the coefficient, radius and angle of the first value that is not
    finite.
    """
    phi = _nodes(n)
    cos, sin = np.cos(phi), np.sin(phi)
    x, y = radii[:, None] * cos, radii[:, None] * sin
    abc = np.empty((3,) + x.shape)
    for k, vals in enumerate(field.coefficients(x, y)):
        abc[k] = vals
    bad = ~np.isfinite(abc)
    if bad.any():
        k, row, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise EvaluationError(f"coefficient {'abc'[k]} not finite at "
                              f"r={float(radii[row]):.6g}, phi={float(phi[j]):.6g}")
    return cos, sin, abc


def _refine(level: Callable, field: CoefficientField, radii: np.ndarray,
            quad: QuadratureSettings):
    """Double the node count from quad.base_nodes until two levels agree, per radius.

    level(field, radii, n) samples one node level of some radii as the rows
    of a (len(radii), width) array.  Each level is one call on the radii
    still unconverged, split into calls of at most `_CHUNK_POINTS` points
    (one radius per call past that many nodes).  A radius has converged
    when max|cur - prev| <= rel_tol * max(1, max|cur|) over its row.
    Returns the (len(radii), width) array of each radius's finest level
    and the mask of radii that stopped at max_nodes without agreeing (cap
    hits).
    """

    def sample(n, rows):
        step = max(1, _CHUNK_POINTS // n)
        return np.concatenate([level(field, radii[rows[i:i + step]], n)
                               for i in range(0, rows.size, step)])

    rows = np.arange(radii.size)
    n = quad.base_nodes
    prev = sample(n, rows)
    out = np.empty((radii.size, prev.shape[1]))
    while rows.size and n < quad.max_nodes:
        n *= 2
        cur = sample(n, rows)
        scale = np.maximum(1.0, np.max(np.abs(cur), axis=1))
        done = np.max(np.abs(cur - prev), axis=1) <= quad.rel_tol * scale
        out[rows[done]] = cur[done]
        rows, prev = rows[~done], cur[~done]
    out[rows] = prev
    capped = np.zeros(radii.size, dtype=bool)
    capped[rows] = True
    return out, capped


@dataclass(frozen=True)
class MomentVector:
    """The six second-harmonic circle moments of (a, b, c) at radius r.

    capped is True when the node doubling stopped at max_nodes without two
    levels agreeing: the moments are then those of the finest level.
    """

    r: float
    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float
    capped: bool = False

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
    against sin^2 - cos^2 and -2 cos sin along the node axis.

    abc of shape (3, k, n), one row of nodes per radius, gives shape (k, 6).
    """
    w2 = sin ** 2 - cos ** 2
    wx = cos * sin
    m = np.empty((abc.shape[1], 3, 2))
    m[..., 0] = np.mean(abc * w2, axis=-1).T
    m[..., 1] = -2.0 * np.mean(abc * wx, axis=-1).T
    return m.reshape(-1, 6)


# shapes of the six moments and the eight block tables, in `BlockTable` order
_TABLE_SHAPES = ((6,), (2, 2), (2, 2, 2), (2, 2, 2), (2, 2, 2),
                 (4, 4), (4, 4), (4, 4), (4, 4))


def _tables_at(field: CoefficientField, radii: np.ndarray, n: int) -> np.ndarray:
    """The six moments and the eight block tables at each of k radii from one
    set of circle samples: a (k, width) array, each row raveled in
    `_TABLE_SHAPES` order."""
    cos, sin, abc = _circle_samples(field, radii, n)
    t = np.vstack([cos, sin])
    A = _blocks(*abc)  # [i, j, p, q, r, n]

    theta2_mean = np.einsum("ijpqrn,in,jn->rpq", A, t, t) / n
    theta3_mean = np.einsum("ijpqrn,kn,in,jn->rkpq", A, t, t, t) / n
    theta1_col = np.einsum("ikpqrn,in->rkpq", A, t) / n
    theta1_row = np.einsum("kipqrn,in->rkpq", A, t) / n
    theta4_b = np.einsum("ijpqrn,in,jn,kn,ln->rklpq", A, t, t, t, t) / n
    theta2_col_b = np.einsum("ilpqrn,in,kn->rklpq", A, t, t) / n
    theta2_row_b = np.einsum("kipqrn,in,ln->rklpq", A, t, t) / n
    plain_b = np.moveaxis(np.mean(A, axis=-1), -1, 0)  # [r, k, l, p, q]

    def to4(blocks):  # blocks[r, k, l, p, q] -> (k, 4, 4)
        return blocks.transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)

    return np.concatenate([np.reshape(v, (len(radii), -1)) for v in (
        _second_harmonics(cos, sin, abc), theta2_mean, theta3_mean,
        theta1_col, theta1_row, to4(theta4_b), to4(theta2_col_b),
        to4(theta2_row_b), to4(plain_b))], axis=1)


def _radius_array(radii) -> np.ndarray:
    radii = np.reshape(np.asarray(radii, dtype=float), -1)
    if not np.all((radii > 0.0) & (radii <= 1.0)):
        raise ValueError("radius must lie in (0, 1]")
    return radii


def _stacked_tables(field: CoefficientField, radii: np.ndarray,
                    quad: QuadratureSettings):
    """The six moments and the eight block tables at each radius, converged
    per radius in every entry, each with a leading radius axis, and the
    mask of radii that hit the node cap."""
    ends = np.cumsum([math.prod(shape) for shape in _TABLE_SHAPES])
    flat, capped = (_refine(_tables_at, field, radii, quad) if radii.size
                    else (np.zeros((0, ends[-1])), np.zeros(0, dtype=bool)))
    return [part.reshape((radii.size,) + shape) for part, shape
            in zip(np.split(flat, ends[:-1], axis=1), _TABLE_SHAPES)], capped


def _converged_tables(field: CoefficientField, r: float,
                      quad: QuadratureSettings):
    """(six moments, eight block tables) at the first node level that agrees
    with the previous one in every entry."""
    (m6, *tabs), _ = _stacked_tables(field, np.array([float(r)]), quad)
    return m6[0], tuple(tab[0] for tab in tabs)


def moment_vectors(field: CoefficientField, radii,
                   quad: QuadratureSettings = DEFAULT_QUADRATURE):
    """Second-harmonic circle moments of a, b, c at each of k radii.

    Returns (moments, capped): a (k, 6) array of (a1, a2, b1, b2, c1, c2)
    rows and a (k,) mask of the radii whose node doubling stopped at
    max_nodes without converging.  Each node level is one coefficient call
    on the grid of the radii still unconverged, split into calls of at most
    `_CHUNK_POINTS` points (one radius per call past that many nodes).
    """
    radii = _radius_array(radii)
    if not radii.size:
        return np.zeros((0, 6)), np.zeros(0, dtype=bool)

    def level(field, rows, n):
        return _second_harmonics(*_circle_samples(field, rows, n))

    return _refine(level, field, radii, quad)


def moment_vector(field: CoefficientField, r: float,
                  quad: QuadratureSettings = DEFAULT_QUADRATURE) -> MomentVector:
    """Second-harmonic circle moments of a, b, c at radius r.

    a1 = mean a*(theta2^2 - theta1^2), a2 = -2 mean a*theta1*theta2, and
    likewise for b and c.  Convergence is tested on the six moments alone.
    This is the one-radius case of `moment_vectors`.
    """
    m6, capped = moment_vectors(field, [r], quad)
    return MomentVector(r, *map(float, m6[0]), capped=bool(capped[0]))


# entry (i, j) of the drift matrix is moment _MOMENT_GATHER[i, j] of
# (a1, a2, b1, b2, c1, c2, 0), negated where _MOMENT_NEGATED is set
_MOMENT_GATHER = np.array([[0, 6, 2, 4], [1, 3, 6, 5], [1, 6, 3, 5], [0, 2, 6, 4]])
_MOMENT_NEGATED = np.array([[False] * 4] * 3 + [[True, True, False, True]])

# the first (row-major) position in the drift matrix of each of a1, a2, b1,
# b2, c1, c2, where it appears with its own sign
MOMENT_POSITIONS = tuple(tuple(int(i) for i in np.argwhere(_MOMENT_GATHER == k)[0])
                         for k in range(6))


def moment_matrices(m6) -> np.ndarray:
    """The 4x4 drift matrices of moment rows (a1, a2, b1, b2, c1, c2): shape
    (..., 6) to (..., 4, 4), by copies and negations only."""
    m6 = np.asarray(m6, dtype=float)
    padded = np.concatenate([m6, np.zeros(m6.shape[:-1] + (1,))], axis=-1)
    out = padded[..., _MOMENT_GATHER]
    np.negative(out, out=out, where=_MOMENT_NEGATED)
    return out


def moment_matrix(m: MomentVector) -> np.ndarray:
    """Assemble the 4x4 drift matrix from the six second-harmonic moments:
    the one-row case of `moment_matrices`."""
    return moment_matrices(m.as_array())


def block_table(field: CoefficientField, r: float,
                quad: QuadratureSettings = DEFAULT_QUADRATURE) -> BlockTable:
    """All quadrature blocks of the coefficient matrices at radius r.

    This is the one-radius case of `block_tables`.
    """
    _, tabs = _converged_tables(field, _radius_array(r)[0], quad)
    return BlockTable(r, *tabs)


def block_tables(field: CoefficientField, radii,
                 quad: QuadratureSettings = DEFAULT_QUADRATURE):
    """The block tables at each of k radii, stacked, and the cap mask.

    Returns (tables, capped): a `BlockTable` whose r is the (k,) array of
    radii and whose tables carry a leading radius axis, and the (k,) mask
    of the radii whose node doubling stopped at max_nodes without
    converging.  The node levels run as in `moment_vectors`, with
    convergence tested on every entry of a radius's moments and tables;
    each row is, bit for bit, the `block_table` of its radius.
    """
    radii = _radius_array(radii)
    (_, *tabs), capped = _stacked_tables(field, radii, quad)
    return BlockTable(radii, *tabs), capped


def moment_matrix_residual(field: CoefficientField, r: float,
                           quad: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Max-entry residual between the assembled moment matrix and plain - 2*theta2_col.

    The two sides are algebraically identical, so the residual is pure
    quadrature error; it cross-checks two independent computation paths.
    """
    m6, tabs = _converged_tables(field, r, quad)
    R = moment_matrices(m6)
    theta2_col, plain = tabs[5], tabs[7]
    return float(np.max(np.abs(R - (plain - 2.0 * theta2_col))))


def write_moment_csv(path, field: CoefficientField, radii,
                     quad: QuadratureSettings = DEFAULT_QUADRATURE) -> None:
    """Moment table as CSV: r, a1, a2, b1, b2, c1, c2 (17 significant digits)."""
    radii = _radius_array(radii)
    m6, _ = moment_vectors(field, radii, quad)
    rows = ["r,a1,a2,b1,b2,c1,c2"] + [",".join("%.17g" % v for v in (r, *m))
                                      for r, m in zip(radii, m6)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
