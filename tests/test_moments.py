import math

import numpy as np
import pytest

from oracles import oracle_moment_vector, oracle_tables
from regan import coeff, moments
from regan.coeff import (CoefficientField, builtin_families, constant_laplacian,
                         family_from_descriptor, make_harmonic_family,
                         make_radial_family, make_trig_field,
                         profile_log_inverse, profile_power)
from regan.moments import (DEFAULT_QUADRATURE, MOMENT_MATRIX_ZEROS,
                           MOMENT_POSITIONS, MomentVector, QuadratureSettings,
                           block_table, block_tables, moment_matrices,
                           moment_matrix, moment_matrix_residual, moment_vector,
                           moment_vectors, write_moment_csv)
from regan.tails import EvaluationError


def const_profile(value):
    return profile_power(gamma=value, alpha=0.0)


# ---------------------------------------------------------------------------
# moment vectors and the assembled matrix
# ---------------------------------------------------------------------------


def test_constant_field_moments_vanish():
    m = moment_vector(constant_laplacian(), 0.5)
    assert np.max(np.abs(m.as_array())) <= 1e-14


def test_cos_mode_moments():
    field = make_harmonic_family("a", const_profile(0.3), 2)
    for r in 2.0 ** -np.arange(1, 11, dtype=float):
        m = moment_vector(field, float(r))
        assert m.a1 == pytest.approx(-0.15, abs=1e-12)
        assert abs(m.a2) <= 1e-12
        assert max(abs(m.b1), abs(m.b2), abs(m.c1), abs(m.c2)) <= 1e-13


def test_sin_mode_moments():
    field = make_harmonic_family("a", const_profile(0.3), 2, phase=-math.pi / 2)
    m = moment_vector(field, 0.25)
    assert m.a1 == pytest.approx(0.0, abs=1e-13)
    assert m.a2 == pytest.approx(-0.15, abs=1e-12)


def test_radial_fields_have_zero_moments():
    field = make_radial_family("a", profile_log_inverse(0.4))
    for r in (0.5, 0.125, 2.0**-12):
        assert np.max(np.abs(moment_vector(field, r).as_array())) <= 1e-12


def test_moment_vector_matches_fourier_oracle():
    for seed in range(5):
        field = make_trig_field(seed)
        got = moment_vector(field, 0.3).as_array()
        assert np.allclose(got, oracle_moment_vector(seed), atol=1e-13)


def test_moment_matrix_pattern_frozen():
    m = MomentVector(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    expect = np.array([
        [1.0, 0.0, 3.0, 5.0],
        [2.0, 4.0, 0.0, 6.0],
        [2.0, 0.0, 4.0, 6.0],
        [-1.0, -3.0, 0.0, -5.0],
    ])
    assert np.array_equal(moment_matrix(m), expect)


def test_moment_matrix_single_column():
    m = MomentVector(0.5, -0.15, 0.0, 0.0, 0.0, 0.0, 0.0)
    R = moment_matrix(m)
    expect = np.zeros((4, 4))
    expect[0, 0], expect[3, 0] = -0.15, 0.15
    assert np.array_equal(R, expect)


def test_structural_zeros_always_hold():
    for seed in range(10):
        R = moment_matrix(moment_vector(make_trig_field(seed), 0.7))
        for i, j in MOMENT_MATRIX_ZEROS:
            assert R[i, j] == 0.0


def test_moment_positions_are_the_first_place_of_each_moment():
    # moment k alone fills its entries of the drift matrix; the first one in
    # row-major order is where criteria read it, with its own sign
    for k, Rk in enumerate(moment_matrices(np.eye(6))):
        first = tuple(int(i) for i in np.argwhere(Rk != 0.0)[0])
        assert first == MOMENT_POSITIONS[k]
        assert Rk[first] == 1.0


def test_modes_up_to_the_bound_read_exact_moments_and_tables():
    # a mode n >= 5 has no part of degree <= 4, so its moments vanish and its
    # tables are those of the constant field; aliasing at the first two node
    # levels would make both agree on another value (modes 60 to 68 do)
    plain = block_table(constant_laplacian(), 0.5)
    for mode in range(5, coeff.MAX_MODE + 1):
        field = make_harmonic_family("a", const_profile(0.3), mode, 0.7)
        assert np.max(np.abs(moment_vector(field, 0.5).as_array())) <= 1e-13
        table = block_table(field, 0.5)
        for name in ("theta2_mean", "theta3_mean", "theta1_col", "theta1_row",
                     "theta4", "theta2_col", "theta2_row", "plain"):
            assert np.allclose(getattr(table, name), getattr(plain, name),
                               rtol=0.0, atol=1e-13), (mode, name)


def test_zero_moments_give_zero_matrix():
    m = MomentVector(0.5, 0, 0, 0, 0, 0, 0)
    assert np.array_equal(moment_matrix(m), np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# batched moment vectors
# ---------------------------------------------------------------------------


def _field_with_a(a, label):
    base = constant_laplacian()
    return CoefficientField(a, base.b, base.c, base.modulus,
                            ellipticity_lower=2.0, label=label)


# needs more circle nodes the larger r is, so a batch converges level by level
CHIRP = _field_with_a(lambda x, y: 1.0 + 0.2 * np.cos(40.0 * x), "chirp")


def _one_circle(field, r, n):
    """cos, sin and the coefficients a, b, c at n uniform nodes of one circle."""
    phi = 2.0 * math.pi * np.arange(n) / n
    cos, sin = np.cos(phi), np.sin(phi)
    abc = [np.broadcast_to(v, phi.shape) for v in field.coefficients(r * cos, r * sin)]
    return cos, sin, abc


def _six_moments(cos, sin, abc):
    w2, wx = sin ** 2 - cos ** 2, cos * sin
    return np.array([m for v in abc
                     for m in (np.mean(v * w2), -2.0 * np.mean(v * wx))])


def _per_radius_moments(field, r, quad):
    """Six moments of one radius by the one-circle doubling loop on 1-D nodes."""
    return _doubling(lambda n: _six_moments(*_one_circle(field, r, n)), quad)


def _doubling(level, quad):
    """The finest level(n) at which two levels agree, and whether the cap hit."""
    n = quad.base_nodes
    prev = level(n)
    while n < quad.max_nodes:
        n *= 2
        cur = level(n)
        scale = max(1.0, float(np.max(np.abs(cur))))
        if float(np.max(np.abs(cur - prev))) <= quad.rel_tol * scale:
            return cur, False
        prev = cur
    return prev, True


BATCH_FIELDS = ([family_from_descriptor(d) for d in builtin_families().values()]
                + [make_trig_field(seed) for seed in range(8)] + [CHIRP])


@pytest.mark.parametrize("chunk_points", [moments._CHUNK_POINTS, 100])
@pytest.mark.parametrize("field", BATCH_FIELDS, ids=lambda f: f.label)
def test_moment_vectors_bitwise_equal_per_radius(field, chunk_points, monkeypatch):
    monkeypatch.setattr(moments, "_CHUNK_POINTS", chunk_points)
    radii = [min(1.0, math.exp(-t)) for t in np.linspace(0.0, 85.0, 120)]
    got, capped = moment_vectors(field, radii)
    assert got.shape == (120, 6) and not capped.any()
    for r, row in zip(radii, got):
        want, _ = _per_radius_moments(field, r, DEFAULT_QUADRATURE)
        assert np.array_equal(row, want)
        assert np.array_equal(row, moment_vector(field, r).as_array())


TABLE_NAMES = ("theta2_mean", "theta3_mean", "theta1_col", "theta1_row",
               "theta4", "theta2_col", "theta2_row", "plain")


def _per_radius_tables(field, r, quad):
    """The eight block tables of one radius by the one-circle doubling loop:
    einsums over 1-D nodes, converged on the six moments and the tables."""

    def level(n):
        cos, sin, (a, b, c) = _one_circle(field, r, n)
        t = np.vstack([cos, sin])
        one, zero = np.ones(n), np.zeros(n)
        A = np.array([[[[a, zero], [zero, one]], [[b, c - 1.0], [zero, zero]]],
                      [[[zero, zero], [a - 1.0, b]], [[one, zero], [zero, c]]]])
        to4 = lambda blocks: blocks.transpose(0, 2, 1, 3).reshape(4, 4)
        tabs = (np.einsum("ijpqn,in,jn->pq", A, t, t) / n,
                np.einsum("ijpqn,kn,in,jn->kpq", A, t, t, t) / n,
                np.einsum("ikpqn,in->kpq", A, t) / n,
                np.einsum("kipqn,in->kpq", A, t) / n,
                to4(np.einsum("ijpqn,in,jn,kn,ln->klpq", A, t, t, t, t) / n),
                to4(np.einsum("ilpqn,in,kn->klpq", A, t, t) / n),
                to4(np.einsum("kipqn,in,ln->klpq", A, t, t) / n),
                to4(np.mean(A, axis=-1)))
        return np.concatenate([_six_moments(cos, sin, (a, b, c))]
                              + [np.ravel(tab) for tab in tabs])

    flat, _ = _doubling(level, quad)
    shapes = moments._TABLE_SHAPES
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape
            in zip(np.split(flat, ends[:-1])[1:], shapes[1:])]


@pytest.mark.parametrize("field", BATCH_FIELDS, ids=lambda f: f.label)
def test_block_tables_bitwise_equal_per_radius(field, monkeypatch):
    radii = [min(1.0, math.exp(-t)) for t in np.linspace(0.0, 40.0, 97)]
    want = [_per_radius_tables(field, r, DEFAULT_QUADRATURE) for r in radii]
    for r, tabs in zip(radii, want):
        one = block_table(field, r)
        assert all(np.array_equal(getattr(one, name), tab)
                   for name, tab in zip(TABLE_NAMES, tabs))
    for chunk_points in (moments._CHUNK_POINTS, 100):
        monkeypatch.setattr(moments, "_CHUNK_POINTS", chunk_points)
        got, capped = block_tables(field, radii)
        assert np.array_equal(got.r, radii) and not capped.any()
        for name, *tabs in zip(TABLE_NAMES, *want):
            assert np.array_equal(getattr(got, name), np.array(tabs))


def test_block_tables_name_the_bad_radius():
    field = _field_with_a(lambda x, y: np.where(np.hypot(x, y) > 0.6, np.nan, 1.0),
                          "hole")
    with pytest.raises(EvaluationError, match=r"coefficient a not finite at r=0\.75, phi="):
        block_tables(field, [0.25, 0.5, 0.75, 0.125])
    with pytest.raises(ValueError, match="radius"):
        block_tables(CHIRP, [0.5, 1.5])
    empty, capped = block_tables(CHIRP, [])
    assert empty.r.shape == (0,) and empty.theta4.shape == (0, 4, 4)
    assert capped.shape == (0,)


def test_moment_vectors_cap_hit_returns_finest_level():
    quad = QuadratureSettings(base_nodes=32, max_nodes=64, rel_tol=1e-13)
    radii = [1.0, 0.5, 0.01, 1e-4]
    got, capped = moment_vectors(CHIRP, radii, quad)
    assert capped.tolist() == [True, True, False, False]
    for r, row, cap in zip(radii, got, capped):
        want, want_cap = _per_radius_moments(CHIRP, r, quad)
        assert cap == want_cap
        assert np.array_equal(row, want)
    assert moment_vector(CHIRP, 1.0, quad).capped
    assert not moment_vector(CHIRP, 1e-4, quad).capped
    assert not moment_vectors(CHIRP, [1.0])[1][0]   # the default cap suffices


def test_moment_vectors_name_the_bad_radius():
    field = _field_with_a(lambda x, y: np.where(np.hypot(x, y) > 0.6, np.nan, 1.0),
                          "hole")
    with pytest.raises(EvaluationError, match=r"coefficient a not finite at r=0\.75, phi="):
        moment_vectors(field, [0.25, 0.5, 0.75, 0.125])
    for bad in ([0.5, 1.5], [0.0], [-0.25], [math.nan]):
        with pytest.raises(ValueError, match="radius"):
            moment_vectors(CHIRP, bad)
    got, capped = moment_vectors(CHIRP, [])
    assert got.shape == (0, 6) and capped.shape == (0,)


# ---------------------------------------------------------------------------
# block tables
# ---------------------------------------------------------------------------


def test_theta_monomial_means():
    # the base node level already integrates the degree-4 theta monomials of
    # the block tables exactly
    phi = moments._nodes(DEFAULT_QUADRATURE.base_nodes)
    assert np.mean(np.cos(phi) ** 4) == pytest.approx(3 / 8, abs=1e-14)
    assert np.mean((np.cos(phi) * np.sin(phi)) ** 2) == pytest.approx(1 / 8, abs=1e-14)


def test_block_table_constant_field():
    bt = block_table(constant_laplacian(), 0.5)
    eye2, eye4 = np.eye(2), np.eye(4)
    assert np.allclose(bt.theta2_mean, eye2, atol=1e-14)
    assert np.allclose(bt.theta3_mean, 0.0, atol=1e-14)
    assert np.allclose(bt.theta1_col, 0.0, atol=1e-14)
    assert np.allclose(bt.theta1_row, 0.0, atol=1e-14)
    assert np.allclose(bt.theta4, 0.5 * eye4, atol=1e-14)
    assert np.allclose(bt.theta2_col, 0.5 * eye4, atol=1e-14)
    assert np.allclose(bt.theta2_row, 0.5 * eye4, atol=1e-14)
    assert np.allclose(bt.plain, eye4, atol=1e-14)


def test_block_table_cos_mode_frozen():
    # hand-derived tables for a = 1 + q cos(2 phi), q = 0.3
    q = 0.3
    bt = block_table(make_harmonic_family("a", const_profile(q), 2), 0.5)
    assert np.allclose(bt.theta2_mean, np.diag([1.0 + q / 4.0, 1.0]), atol=1e-13)
    assert np.allclose(bt.theta3_mean, 0.0, atol=1e-13)
    assert np.allclose(bt.theta1_col, 0.0, atol=1e-13)
    assert np.allclose(bt.theta1_row, 0.0, atol=1e-13)

    theta4 = 0.5 * np.eye(4)
    theta4[0, 0] += q / 4.0
    assert np.allclose(bt.theta4, theta4, atol=1e-13)

    theta2_col = 0.5 * np.eye(4)
    theta2_col[0, 0] += q / 4.0
    theta2_col[3, 0] = -q / 4.0
    assert np.allclose(bt.theta2_col, theta2_col, atol=1e-13)

    theta2_row = 0.5 * np.eye(4)
    theta2_row[0, 0] += q / 4.0
    theta2_row[3, 0] = q / 4.0
    assert np.allclose(bt.theta2_row, theta2_row, atol=1e-13)

    assert np.allclose(bt.plain, np.eye(4), atol=1e-13)


def test_block_table_samples_coefficients_once_per_level(monkeypatch):
    sizes = []
    original = CoefficientField.coefficients

    def counting(self, x, y):
        sizes.append(int(np.size(x)))
        return original(self, x, y)

    monkeypatch.setattr(CoefficientField, "coefficients", counting)
    block_table(make_harmonic_family("a", profile_power(0.3, 0.5), 2), 0.5)
    assert len(sizes) >= 2
    assert sizes == [DEFAULT_QUADRATURE.base_nodes * 2**k for k in range(len(sizes))]


def test_block_table_matches_fourier_oracle():
    for seed in (0, 1, 2):
        field = make_trig_field(seed)
        bt = block_table(field, 0.4)
        oracle = oracle_tables(seed)
        assert np.allclose(bt.theta4, oracle["theta4"], atol=1e-13)
        assert np.allclose(bt.theta2_col, oracle["theta2_col"], atol=1e-13)
        assert np.allclose(bt.theta2_row, oracle["theta2_row"], atol=1e-13)
        assert np.allclose(bt.plain, oracle["plain"], atol=1e-13)


def test_block_asymptotics_on_builtin_family():
    field = make_harmonic_family("a", profile_log_inverse(0.4), 2)
    for r in 2.0 ** -np.arange(1, 15, 2, dtype=float):
        bt = block_table(field, float(r))
        w = float(field.modulus(r))
        assert np.max(np.abs(bt.theta2_mean - np.eye(2))) <= 2.0 * w
        assert np.max(np.abs(bt.theta3_mean)) <= 2.0 * w
        assert np.max(np.abs(bt.theta1_col)) <= 2.0 * w
        assert np.max(np.abs(bt.theta1_row)) <= 2.0 * w
        assert np.max(np.abs(bt.theta4 - 0.5 * np.eye(4))) <= 2.0 * w
        assert np.max(np.abs(bt.theta2_col - 0.5 * np.eye(4))) <= 2.0 * w
        assert np.max(np.abs(bt.theta2_row - 0.5 * np.eye(4))) <= 2.0 * w
        assert np.max(np.abs(bt.plain - np.eye(4))) <= 2.0 * w


# ---------------------------------------------------------------------------
# the cross-check identity
# ---------------------------------------------------------------------------


def test_identity_residual_constant_field():
    assert moment_matrix_residual(constant_laplacian(), 0.5) <= 1e-14


def test_identity_residual_cos_mode():
    field = make_harmonic_family("a", const_profile(0.3), 2)
    assert moment_matrix_residual(field, 0.25) <= 1e-12


def test_identity_residual_random_fields():
    radii = 2.0 ** -np.arange(1, 11, dtype=float)
    worst = 0.0
    for seed in range(20):
        field = make_trig_field(seed)
        for r in radii:
            worst = max(worst, moment_matrix_residual(field, float(r)))
    assert worst <= 1e-10


def test_moment_csv_format(tmp_path):
    path = tmp_path / "moments.csv"
    field = make_harmonic_family("a", const_profile(0.3), 2)
    write_moment_csv(path, field, [0.5, 0.25])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,a1,a2,b1,b2,c1,c2"
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) == pytest.approx(-0.15, abs=1e-12)
    assert len(first) == 7
    # one batched call, byte for byte the table of one moment_vector per radius
    field = make_trig_field(3)
    radii = 2.0 ** -np.arange(1, 21, dtype=float)
    write_moment_csv(path, field, radii)
    rows = ["r,a1,a2,b1,b2,c1,c2"]
    for r in radii:
        m = moment_vector(field, float(r))
        rows.append(",".join("%.17g" % v for v in
                             (m.r, m.a1, m.a2, m.b1, m.b2, m.c1, m.c2)))
    assert path.read_text() == "\n".join(rows) + "\n"

