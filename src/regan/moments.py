"""Circle quadrature and spherical-moment tables for coefficient fields.

The operator's coefficient matrices live in four 2x2 blocks

    A11 = [[a, 0], [0, 1]],   A12 = [[b, c-1], [0, 0]],
    A21 = [[0, 0], [a-1, b]], A22 = [[1, 0], [0, c]],

and everything downstream is a circle mean of these blocks against small
monomials in theta = (cos phi, sin phi).  The uniform trapezoid rule is
spectrally accurate for these periodic integrands, and its node levels
nest: the 2n nodes of one level are the n nodes of the level before plus
n new odd ones.  One loop, `_refine`, owns the sampling.  It evaluates and
checks a, b, c through `_circle_samples` at the base level and then, per
level, only at the new odd nodes of the radii that have not converged,
and it doubles the node count per radius until two levels agree.  Two
reducers turn one level's samples into numbers: `_second_harmonics` (the
six moments) and `_tables_at` (the six moments and the eight block
tables, summed over the eight block entries that are not identically
zero, `_SLOTS`).  `_MOMENT_GATHER` declares where the six moments sit in
the 4x4 drift matrix.

Both shortcuts give, bit for bit, what fresh samples per level and the
16-entry block array give: `_refine` says why the nested samples are the
fresh ones, and `_tables_at` why the slot sums are the block sums.

`moment_vectors` and `block_tables` are the batched paths of the six
moments and of the block tables: radii go through the node levels in
groups of at most `_CHUNK_POINTS` points, and only the radii that have not
converged go on to the next level.  Each radius gets the node count and,
bit for bit, the values it gets when evaluated alone; `moment_vector` and
`block_table` are the one-radius cases.

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

# coefficient points per group of radii at one node level: a group never
# holds a larger grid than one radius at the default node cap
_CHUNK_POINTS = 2**14


def _nodes(n: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(n) / n


def _odd_nodes(n: int) -> np.ndarray:
    """The n nodes that level 2n adds to level n: 2 pi (2j + 1) / (2n)."""
    return 2.0 * math.pi * np.arange(1, 2 * n, 2) / (2 * n)


def _circle_samples(field: CoefficientField, radii: np.ndarray, phi: np.ndarray):
    """cos phi, sin phi and the checked coefficients a, b, c at the angles
    phi on each circle of a 1-D array of radii.

    The coefficients come from one call on the (radii x phi) grid and are
    stacked into one array of shape (3, len(radii), len(phi));
    EvaluationError names the coefficient, radius and angle of the first
    value that is not finite.
    """
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


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The samples of level 2n along the last axis from those of level n
    (its even nodes) and of the n new ones (its odd nodes)."""
    out = np.empty(even.shape[:-1] + (2 * even.shape[-1],))
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out


def _refine(reduce: Callable, field: CoefficientField, radii: np.ndarray,
            quad: QuadratureSettings):
    """Double the node count from quad.base_nodes until two levels agree, per radius.

    reduce(cos, sin, abc) maps the samples of one node level, abc of shape
    (3, k, n) as from `_circle_samples`, to a (k, width) array.  The levels
    nest: node 2j of level 2n is 2 pi 2j / (2n), which equals 2 pi j / n
    bit for bit because doubling a numerator and its denominator is exact.
    So a level after the first evaluates a, b, c only at the n odd nodes of
    the radii still unconverged, computed contiguously by the operations
    that give node 2j + 1 of `_nodes(2n)`, and interleaves them with the
    kept samples: reduce sees the very array that evaluating all 2n nodes
    afresh would give, and a radius that converges at 2n nodes costs 2n
    coefficient points, not 3n.

    Radii go through the levels in groups whose next level fits in
    `_CHUNK_POINTS` points; a group that outgrows that splits into groups
    that fit (one radius per group past that many nodes).  So each
    coefficient call and each reduce call holds at most `_CHUNK_POINTS`
    points or one radius, and the kept samples a few times that.

    A radius has converged when max|cur - prev| <= rel_tol * max(1, max|cur|)
    over its row.  Returns the (len(radii), width) array of each radius's
    finest level and the mask of radii that stopped at max_nodes without
    agreeing (cap hits).
    """
    out, capped = None, np.zeros(radii.size, dtype=bool)
    base = quad.base_nodes
    first = max(1, _CHUNK_POINTS // (2 * base))
    for start in range(0, radii.size, first):
        rows = np.arange(start, min(start + first, radii.size))
        cos, sin, abc = _circle_samples(field, radii[rows], _nodes(base))
        prev = reduce(cos, sin, abc)
        if out is None:
            out = np.empty((radii.size, prev.shape[1]))
        # groups still refining, last one next; a loop, not a recursive
        # closure, whose reference cycle would hold each call's arrays
        # until the garbage collector runs
        todo = [(rows, base, cos, sin, abc, prev)]
        while todo:
            rows, n, cos, sin, abc, prev = todo.pop()
            step = max(1, _CHUNK_POINTS // (2 * n))
            if rows.size > step:
                todo += [(rows[i:i + step], n, cos, sin, abc[:, i:i + step],
                          prev[i:i + step]) for i in reversed(range(0, rows.size, step))]
                continue
            if n >= quad.max_nodes:
                out[rows] = prev
                capped[rows] = True
                continue
            cos_odd, sin_odd, new = _circle_samples(field, radii[rows], _odd_nodes(n))
            cos, sin = _interleave(cos, cos_odd), _interleave(sin, sin_odd)
            abc = _interleave(abc, new)
            cur = reduce(cos, sin, abc)
            scale = np.maximum(1.0, np.max(np.abs(cur), axis=1))
            done = np.max(np.abs(cur - prev), axis=1) <= quad.rel_tol * scale
            out[rows[done]] = cur[done]
            if not done.all():
                todo.append((rows[~done], 2 * n, cos, sin, abc[:, ~done], cur[~done]))
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


# the entries A_ij[p, q] of the four blocks that are not identically zero,
# as (i, j, p, q) in lexicographic order; six hold a field (a, b, c - 1,
# a - 1, b, c, in `_FIELD_SLOTS` order) and two the constant 1
_SLOTS = ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 0), (0, 1, 0, 1),
          (1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1))
_FIELD_SLOTS, _ONE_SLOTS = [0, 2, 3, 4, 5, 7], [1, 6]


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


def _slot_columns() -> np.ndarray:
    """Where each slot's sums land in a raveled row of the six moments and
    the eight tables: an (8, 14) array of columns.

    Slot (i, j, p, q) adds to entry (.., p, q) of each table, at the table
    index that i or j gives (theta1_col: j, theta1_row: i, theta2_col:
    l = j, theta2_row: k = i, plain: (k, l) = (i, j)), once for each
    value of the free monomial indices k, l of the table's einsum in
    `_tables_at`, in their order.  The 4x4 tables are read as blocks
    [k, l, p, q] at [2k + p, 2l + q].
    """
    every = slice(None)
    where = (lambda i, j: (), lambda i, j: (every,), lambda i, j: (j,),
             lambda i, j: (i,), lambda i, j: (every, every),
             lambda i, j: (every, j), lambda i, j: (i, every), lambda i, j: (i, j))
    columns, start = [], _TABLE_SHAPES[0][0]
    for shape, at in zip(_TABLE_SHAPES[1:], where):
        index = start + np.arange(math.prod(shape)).reshape(shape)
        if shape == (4, 4):
            index = index.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
        columns.append([np.ravel(index[at(i, j) + (p, q)]) for i, j, p, q in _SLOTS])
        start += index.size
    return np.concatenate(columns, axis=1)


_SLOT_COLUMNS = _slot_columns()


def _slot_sums(V: np.ndarray, t: np.ndarray, slots: list) -> np.ndarray:
    """Per-slot node sums of the eight tables for the values V[s, r, n] of
    some of the `_SLOTS`: shape (len(slots), r, 14), the free monomial
    indices of each table raveled in order (see `_slot_columns`)."""
    ti, tj = t[[_SLOTS[s][0] for s in slots]], t[[_SLOTS[s][1] for s in slots]]
    return np.concatenate([np.reshape(v, V.shape[:2] + (-1,)) for v in (
        np.einsum("srn,sn,sn->sr", V, ti, tj),
        np.stack([np.einsum("srn,sn,sn->sr", V * tk, ti, tj) for tk in t], axis=-1),
        np.einsum("srn,sn->sr", V, ti),
        np.einsum("srn,sn->sr", V, tj),
        np.einsum("srn,kn,ln->srkl", V * ti[:, None] * tj[:, None], t, t),
        np.einsum("srn,sn,kn->srk", V, ti, t),
        np.einsum("srn,sn,ln->srl", V, tj, t),
        np.mean(V, axis=-1))], axis=2)


def _tables_at(cos, sin, abc) -> np.ndarray:
    """The six moments and the eight block tables at each of k radii from one
    node level, abc of shape (3, k, n): a (k, width) array, each row raveled
    in `_TABLE_SHAPES` order.

    Each table is an einsum over a slot axis, which gives one node sum per
    slot; the slot sums are then added at `_SLOT_COLUMNS` one slot after
    the other, in `_SLOTS` order, and divided by n.  That is the einsum
    over the 16-entry block array bit for bit, because numpy's einsum also
    sums each (i, j) term's node loop by itself and adds the terms in
    (i, j) order, and a slot that is identically zero adds exactly 0.
    Each node loop multiplies its factors in the order of the block einsum,
    samples first.  theta3 and theta4 multiply their first factors
    elementwise beforehand, which rounds each product as einsum's loop
    does; with three operands left, einsum's loop sums in sequence as its
    many-operand loop does, and runs several times faster.  The two
    constant-1 slots give the same sums at every radius, so they are summed
    on one row.  `test_block_tables_bitwise_equal_per_radius` and
    `test_nested_levels_equal_fresh_sampling_per_radius` hold all this
    against the 16-entry einsum.
    """
    n, k = cos.size, abc.shape[1]
    t = np.vstack([cos, sin])
    a, b, c = abc
    field = _slot_sums(np.stack([a, b, c - 1.0, a - 1.0, b, c]), t, _FIELD_SLOTS)
    ones = _slot_sums(np.ones((2, 1, n)), t, _ONE_SLOTS)  # the same at every radius
    sums = dict(zip(_FIELD_SLOTS + _ONE_SLOTS, [*field, *ones]))
    first, plain = _TABLE_SHAPES[0][0], math.prod(_TABLE_SHAPES[-1])
    out = np.zeros((k, sum(map(math.prod, _TABLE_SHAPES))))
    out[:, :first] = _second_harmonics(cos, sin, abc)
    for s, columns in enumerate(_SLOT_COLUMNS):
        out[:, columns] += sums[s]
    out[:, first:-plain] /= n  # plain holds means already
    return out


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
    max_nodes without converging.  Each node level after the first
    evaluates the coefficients only at its new nodes, on the grid of the
    radii still unconverged, in groups of at most `_CHUNK_POINTS` points
    (one radius per group past that many nodes).
    """
    radii = _radius_array(radii)
    if not radii.size:
        return np.zeros((0, 6)), np.zeros(0, dtype=bool)

    return _refine(_second_harmonics, field, radii, quad)


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
    m6, tabs = _converged_tables(field, _radius_array(r)[0], quad)
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
