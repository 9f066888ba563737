import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from regan.coeff import (CoefficientField, constant_laplacian, make_harmonic_family,
                         make_radial_family, make_trig_field,
                         profile_log_inverse, profile_log_oscillatory,
                         profile_power)
from regan.dynsys import (CONSTANT, DIVERGENT, J_BASIS, J_BASIS_INV, M_INF,
                          STABLE, UNSTABLE, FullSystem, MatrixSystem,
                          ProbeSettings, asymptotic_constancy_probe,
                          full_system, propagate, propagate_dense,
                          reduced_system, reduction_deviation,
                          second_harmonic_system, uniform_stability_probe)
from regan.moments import QuadratureSettings


def harmonic_decay(gamma):
    return lambda t: gamma / (1.0 + t)


def oscillatory_decay(gamma, eta):
    return lambda t: gamma * math.cos(eta * t) / (1.0 + t)


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------


def test_reduced_system_constant_field_is_zero():
    sys = reduced_system(constant_laplacian())
    assert np.max(np.abs(sys.matrix(3.0))) <= 1e-14


def test_reduced_system_radial_field_is_zero():
    sys = reduced_system(make_radial_family("a", profile_log_inverse(0.4)))
    for t in (0.5, 5.0, 20.0):
        assert np.max(np.abs(sys.matrix(t))) <= 1e-12


def test_reduced_system_matches_pattern():
    gamma = 0.4
    field = make_harmonic_family("a", profile_log_inverse(gamma), 2)
    sys = reduced_system(field)
    pattern = second_harmonic_system(harmonic_decay(gamma))
    for t in (0.0, 1.0, 7.5, 22.0):
        assert np.allclose(sys.matrix(t), pattern.matrix(t), atol=1e-12)


def test_reduced_matrices_batch_the_uncached_radii():
    field = make_harmonic_family("a", profile_log_oscillatory(0.4, 1.0), 2)
    sys = reduced_system(field)
    grid = np.linspace(0.5, 40.0, 50)
    ts = np.concatenate([[-1.0, 0.0], grid, grid[:3]])
    stack = sys.matrices(ts)
    assert stack.shape == (len(ts), 4, 4)
    pointwise = reduced_system(field)
    assert all(np.array_equal(R, pointwise.matrix(t)) for R, t in zip(stack, ts))
    # t = -1 and t = 0 share r = 1, and three times come twice
    assert sys.work == {"radii": 51, "cap_hits": 0}
    sys.matrices(ts[::-1])
    assert sys.work["radii"] == 51


def test_reduced_system_counts_cap_hits():
    base = constant_laplacian()
    chirp = CoefficientField(lambda x, y: 1.0 + 0.2 * np.cos(40.0 * x), base.b,
                             base.c, base.modulus, ellipticity_lower=2.0)
    sys = reduced_system(chirp, QuadratureSettings(32, 64, 1e-13))
    sys.prefetch([0.0, math.log(2.0), 10.0])
    sys.matrix(0.1)
    assert sys.work == {"radii": 4, "cap_hits": 3}
    assert sys.moments(0.0).capped and not sys.moments(10.0).capped


def test_full_system_constant_field_matches_limit():
    sys = full_system(constant_laplacian())
    for t in (0.0, 4.0, 18.0):
        assert np.allclose(sys.matrix(t), M_INF, atol=1e-13)
        assert np.max(np.abs(sys.conjugated_remainder(t))) <= 1e-13
        assert np.max(np.abs(sys.reduced_block(t))) <= 1e-13


def test_basis_change_is_exact():
    assert np.array_equal(J_BASIS_INV,
                          np.block([[0.25 * np.eye(4), 0.5 * np.eye(4)],
                                    [0.25 * np.eye(4), -0.5 * np.eye(4)]]))
    assert np.array_equal(J_BASIS_INV @ J_BASIS, np.eye(8))
    diag = J_BASIS_INV @ M_INF @ J_BASIS
    assert np.array_equal(diag, np.diag([0.0] * 4 + [-2.0] * 4))


def test_remainder_orders_on_builtin_family():
    field = make_harmonic_family("a", profile_log_inverse(0.4), 2)
    sys = full_system(field)
    for t in (1.0, 5.0, 15.0, 30.0):
        eps = sys.eps(t)
        assert np.max(np.abs(sys.s1(t))) <= 6.0 * eps
        assert np.max(np.abs(sys.s2(t))) <= 10.0 * eps**2
        assert np.allclose(sys.m_inf + sys.s1(t) + sys.s2(t), sys.matrix(t),
                           atol=1e-14)


def test_reduction_gap_is_second_order():
    # measured |R1 - R| / eps^2 stays below 10 on the fixed-amplitude family
    field = make_harmonic_family("a", profile_power(0.2, 0.0), 2)
    table = reduction_deviation(full_system(field), reduced_system(field),
                                np.linspace(1.0, 30.0, 16))
    assert table["max_ratio"] <= 10.0


def test_reduction_gap_bounded_on_builtins():
    profiles = [profile_log_inverse(0.4), profile_log_oscillatory(0.4, 1.0),
                profile_power(0.3, 0.5)]
    for prof in profiles:
        field = make_harmonic_family("a", prof, 2)
        table = reduction_deviation(full_system(field), reduced_system(field),
                                    np.linspace(1.0, 30.0, 16))
        ratio = np.array(table["ratio"])
        assert np.isfinite(ratio).all()
        # no growth trend: the tail never exceeds the early peak meaningfully
        assert ratio[-1] <= 1.25 * np.max(ratio[:8]) + 1e-9


def test_reduction_deviation_flags_zero_eps():
    field = constant_laplacian()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = reduction_deviation(full_system(field), reduced_system(field),
                                    np.linspace(1.0, 30.0, 16))
    assert table["eps_zero"]
    assert table["ratio"] == [None] * 16
    assert table["max_ratio"] is None and table["tail_slope"] is None
    field = make_harmonic_family("a", profile_power(0.2, 0.0), 2)
    table = reduction_deviation(full_system(field), reduced_system(field),
                                np.linspace(1.0, 30.0, 16))
    assert not table["eps_zero"]
    assert np.isfinite(np.array(table["ratio"])).all()
    assert table["max_ratio"] == max(table["ratio"])


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def test_propagate_zero_system_is_identity():
    sys = reduced_system(constant_laplacian())
    got = propagate(sys, 0.0, 12.0, rtol=1e-10)
    assert np.allclose(got.Phi, np.eye(4), atol=1e-12)


def test_propagate_validates_rtol():
    sys = reduced_system(constant_laplacian())
    with pytest.raises(ValueError):
        propagate(sys, 0.0, 1.0, rtol=1e-2)
    with pytest.raises(ValueError):
        propagate(sys, 0.0, 1.0, rtol=1e-13)


def test_propagate_constant_diagonal_oracle():
    c = 0.7
    sys = MatrixSystem(4, lambda t: c * np.eye(4))
    got = propagate(sys, 1.0, 5.0, rtol=1e-10)
    assert np.allclose(got.Phi, math.exp(-c * 4.0) * np.eye(4), rtol=1e-9)


@pytest.mark.parametrize("field", [
    make_harmonic_family("a", profile_log_oscillatory(0.4, 1.0), 2),
    make_trig_field(3)], ids=["oscillatory_log", "trig_random-3"])
def test_stage_prefetch_leaves_propagation_bitwise_unchanged(field):
    # a MatrixSystem evaluates every stage alone: no prefetch, same times
    batched = reduced_system(field)
    pointwise = MatrixSystem(4, reduced_system(field).matrix)
    ts = np.linspace(0.5, 12.0, 47)
    got, err = propagate_dense(batched, 0.0, ts, rtol=1e-10)
    want, want_err = propagate_dense(pointwise, 0.0, ts, rtol=1e-10)
    assert np.array_equal(got, want) and err == want_err
    assert batched.work["radii"] > 0


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_closed_form_propagation(gamma):
    sys = second_harmonic_system(harmonic_decay(gamma))
    for s in (0.0, 3.0, 11.0, 24.0):
        ts = np.linspace(s, 30.0, 40)
        phis, _ = propagate_dense(sys, s, ts, rtol=1e-11)
        expect = ((1.0 + ts) / (1.0 + s)) ** (gamma / 2.0)
        got = phis[:, 0, 0]
        assert np.max(np.abs(got / expect - 1.0)) <= 1e-8
        # the companion entry integrates the same growth with opposite sign
        assert np.max(np.abs(phis[:, 3, 0] - (1.0 - expect))) <= 1e-8 * np.max(expect)


def test_closed_form_on_field_backed_system():
    gamma = 0.4
    field = make_harmonic_family("a", profile_log_inverse(gamma), 2)
    sys = reduced_system(field)
    s, t = 1.0, 25.0
    got = propagate(sys, s, t, rtol=1e-11).Phi[0, 0]
    assert got == pytest.approx(((1.0 + t) / (1.0 + s)) ** (gamma / 2.0), rel=1e-8)


def test_oscillatory_exponent_matches_quadrature_oracle():
    gamma, eta = 1.0, 1.0
    sys = second_harmonic_system(oscillatory_decay(gamma, eta))
    s, t = 0.0, 17.0
    integral, _ = quad(lambda tau: gamma * math.cos(eta * tau) / (1.0 + tau), s, t,
                       limit=200)
    got = propagate(sys, s, t, rtol=1e-11).Phi[0, 0]
    assert got == pytest.approx(math.exp(0.5 * integral), rel=1e-8)


def test_semigroup_property():
    field = make_trig_field(seed=4, amplitude=0.15)
    sys = reduced_system(field)
    rtol = 1e-9
    s, u, t = 0.5, 4.0, 9.0
    full = propagate(sys, s, t, rtol).Phi
    composed = propagate(sys, u, t, rtol).Phi @ propagate(sys, s, u, rtol).Phi
    assert np.max(np.abs(full - composed)) <= 10.0 * rtol * np.max(np.abs(full))


def test_time_reversal():
    field = make_trig_field(seed=9, amplitude=0.15)
    sys = reduced_system(field)
    rtol = 1e-9
    fwd = propagate(sys, 1.0, 6.0, rtol).Phi
    bwd = propagate(sys, 6.0, 1.0, rtol).Phi
    assert np.max(np.abs(fwd @ bwd - np.eye(4))) <= 10.0 * rtol


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

S_GRID = [0.0, 2.0, 5.0, 10.0, 20.0]


def test_probe_zero_system_stable_constant():
    sys = reduced_system(constant_laplacian())
    stab = uniform_stability_probe(sys, S_GRID, 30.0)
    assert stab.uniform_stability == STABLE
    assert stab.kappa_max == pytest.approx(1.0, abs=1e-10)
    const = asymptotic_constancy_probe(sys, 1.0, 30.0)
    assert const.asymptotic_constancy == CONSTANT
    assert const.deviation_half <= 1e-10


def test_probe_verdicts_acceptance_families():
    radial = reduced_system(make_radial_family("a", profile_log_inverse(0.4)))
    assert uniform_stability_probe(radial, S_GRID, 30.0).uniform_stability == STABLE
    assert asymptotic_constancy_probe(radial, 1.0, 30.0).asymptotic_constancy == CONSTANT

    growing = second_harmonic_system(harmonic_decay(1.0))
    assert uniform_stability_probe(growing, S_GRID, 30.0).uniform_stability == UNSTABLE
    assert asymptotic_constancy_probe(growing, 1.0, 30.0).asymptotic_constancy == DIVERGENT

    oscillating = second_harmonic_system(oscillatory_decay(1.0, 1.0))
    assert uniform_stability_probe(oscillating, S_GRID, 30.0).uniform_stability == STABLE
    assert asymptotic_constancy_probe(oscillating, 1.0, 30.0).asymptotic_constancy == CONSTANT


def test_probe_field_backed_families():
    unstable_field = make_harmonic_family("a", profile_log_inverse(0.5), 2)
    sys = reduced_system(unstable_field)
    assert uniform_stability_probe(sys, S_GRID, 30.0).uniform_stability == UNSTABLE

    stable_field = make_harmonic_family("a", profile_log_oscillatory(0.4, 1.0), 2)
    sys = reduced_system(stable_field)
    assert uniform_stability_probe(sys, S_GRID, 30.0).uniform_stability == STABLE
    assert (asymptotic_constancy_probe(sys, 1.0, 30.0).asymptotic_constancy
            == CONSTANT)


def test_probe_full_system_reduced_block():
    # the raw 8x8 system has a genuine exp(+2t) branch; stability semantics
    # live on the conjugated neutral block
    sys = full_system(constant_laplacian()).reduced_block_system()
    stab = uniform_stability_probe(sys, [0.0, 2.0], 12.0)
    assert stab.uniform_stability == STABLE
    const = asymptotic_constancy_probe(sys, 0.5, 12.0)
    assert const.asymptotic_constancy == CONSTANT


def test_full_system_propagation_matches_matrix_exponential():
    from scipy.linalg import expm

    sys = full_system(constant_laplacian())
    span = 1.5
    got = propagate(sys, 0.0, span, rtol=1e-11).Phi
    assert np.allclose(got, expm(-M_INF * span), atol=1e-9)


def test_probe_report_merge():
    sys = reduced_system(constant_laplacian())
    stab = uniform_stability_probe(sys, [0.0], 10.0)
    const = asymptotic_constancy_probe(sys, 0.0, 10.0)
    merged = stab.merged_with(const)
    assert merged.uniform_stability == STABLE
    assert merged.asymptotic_constancy == CONSTANT
    assert merged.kappa_samples and merged.constancy_samples
