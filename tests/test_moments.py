import math

import numpy as np
import pytest

from oracles import oracle_moment_vector, oracle_tables
from regan import moments
from regan.coeff import (CoefficientField, builtin_families, constant_laplacian,
                         family_from_descriptor, make_harmonic_family,
                         make_radial_family, make_trig_field,
                         profile_log_inverse, profile_power)
from regan.moments import (DEFAULT_QUADRATURE, MOMENT_MATRIX_ZEROS, MomentVector,
                           QuadratureSettings, block_table, circle_mean,
                           forcing_functionals, moment_matrix,
                           moment_matrix_residual, moment_vector, moment_vectors,
                           write_moment_csv)
from regan.tails import EvaluationError


def const_profile(value):
    return profile_power(gamma=value, alpha=0.0)


# ---------------------------------------------------------------------------
# circle_mean
# ---------------------------------------------------------------------------


def test_circle_mean_constant():
    assert circle_mean(lambda phi: np.ones_like(phi)) == 1.0


def test_circle_mean_cos_squared():
    got = circle_mean(lambda phi: np.cos(2 * phi) ** 2, n_nodes=16)
    assert got == pytest.approx(0.5, abs=1e-14)


def test_circle_mean_orthogonality():
    assert circle_mean(lambda phi: np.cos(2 * phi)) == pytest.approx(0.0, abs=1e-15)


def test_circle_mean_rejects_bad_node_counts():
    with pytest.raises(ValueError):
        circle_mean(lambda phi: phi, n_nodes=8)
    with pytest.raises(ValueError):
        circle_mean(lambda phi: phi, n_nodes=24)


def test_circle_mean_names_bad_angle():
    def f(phi):
        out = np.ones_like(phi)
        out[phi > 3.0] = np.inf
        return out

    with pytest.raises(EvaluationError, match="phi="):
        circle_mean(f)


def test_circle_mean_exact_for_trig_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = rng.uniform(-1, 1, 6)
        const = rng.uniform(-1, 1)

        def f(phi):
            out = np.full_like(phi, const)
            for n, cn in enumerate(coeffs, start=1):
                out = out + cn * np.cos(n * phi) + cn * np.sin(n * phi)
            return out

        assert circle_mean(f, n_nodes=16) == pytest.approx(const, abs=1e-13)


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


def _per_radius_moments(field, r, quad):
    """Six moments of one radius by the one-circle doubling loop on 1-D nodes."""

    def level(n):
        phi = 2.0 * math.pi * np.arange(n) / n
        cos, sin = np.cos(phi), np.sin(phi)
        w2, wx = sin ** 2 - cos ** 2, cos * sin
        abc = [np.broadcast_to(v, phi.shape) for v in field.coefficients(r * cos, r * sin)]
        return np.array([m for v in abc
                         for m in (np.mean(v * w2), -2.0 * np.mean(v * wx))])

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
    assert circle_mean(lambda phi: np.cos(phi) ** 4) == pytest.approx(3 / 8, abs=1e-14)
    assert circle_mean(lambda phi: (np.cos(phi) * np.sin(phi)) ** 2) == pytest.approx(
        1 / 8, abs=1e-14)


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


# ---------------------------------------------------------------------------
# forcing functionals
# ---------------------------------------------------------------------------


class SecondHarmonicW:
    """W = (x^2 - y^2, 0): zero circle mean and first moments at every radius."""

    def value(self, x, y):
        return np.stack([x**2 - y**2, np.zeros_like(x)])

    def gradient(self, x, y):
        zero = np.zeros_like(x)
        return np.stack([np.stack([2 * x, -2 * y]), np.stack([zero, zero])])


class FirstHarmonicW:
    """W = (x, 0): violates the first-moment condition."""

    def value(self, x, y):
        return np.stack([x, np.zeros_like(x)])

    def gradient(self, x, y):
        one, zero = np.ones_like(x), np.zeros_like(x)
        return np.stack([np.stack([one, zero]), np.stack([zero, zero])])


class ZeroW:
    def value(self, x, y):
        return np.zeros((2,) + np.shape(x))

    def gradient(self, x, y):
        return np.zeros((2, 2) + np.shape(x))


def test_forcing_functionals_zero_w():
    got = forcing_functionals(constant_laplacian(), 0.5, ZeroW())
    assert np.allclose(got.Lambda, 0.0) and np.allclose(got.P, 0.0)
    assert np.allclose(got.Q, 0.0) and got.bound_ok


def test_forcing_functionals_identity_blocks():
    got = forcing_functionals(constant_laplacian(), 0.5, SecondHarmonicW())
    # identity blocks pair grad W with exact derivatives of vanishing moments
    assert np.max(np.abs(got.Lambda)) <= 1e-14
    assert np.max(np.abs(got.P)) <= 1e-14
    assert np.max(np.abs(got.Q)) <= 1e-14
    assert got.bound_ok


def test_forcing_functionals_cos_mode_frozen():
    r = 0.5
    field = make_harmonic_family("a", const_profile(0.2), 2)
    got = forcing_functionals(field, r, SecondHarmonicW())
    assert got.Lambda == pytest.approx([0.1 * r, 0.0], abs=1e-13)
    assert np.max(np.abs(got.P)) <= 1e-13
    assert np.max(np.abs(got.Q)) <= 1e-13
    assert got.grad_mean == pytest.approx(2.0 * r, abs=1e-12)
    assert got.bound_rhs == pytest.approx(0.4 * r, abs=1e-12)
    assert got.bound_ok


def test_forcing_functionals_flags_bad_w():
    got = forcing_functionals(constant_laplacian(), 0.5, FirstHarmonicW())
    assert got.bound_ok is None
    assert got.projection_residual > 1e-3


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
