import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sici

from regan import tails
from regan.tails import (CONVERGED, DIVERGED, FAILS, HOLDS, INCONCLUSIVE, LN2,
                         analyze_sums, bounded_oscillation_verdict,
                         dyadic_window_sums, extended_lower_verdict,
                         group_sums, lower_bound_verdict, prefix_from_sums,
                         window_integral)


def power_window_sums(alpha, n=60):
    # exact window integrals of omega(r)/r = r^(alpha-1) over dyadic windows
    k = np.arange(n, dtype=float)
    return (2.0 ** (-k * alpha) - 2.0 ** (-(k + 1) * alpha)) / alpha


def test_window_integral_exact_on_polynomials():
    assert window_integral(lambda t: 3.0 * t**2, 0.0, 2.0) == pytest.approx(8.0, abs=1e-12)


def test_window_integral_rejects_nonfinite():
    with pytest.raises(tails.EvaluationError, match="radius"):
        window_integral(lambda t: np.where(t > 0.5, np.inf, 1.0), 0.0, 1.0)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_geometric_tail_is_exact(alpha):
    analysis = analyze_sums(power_window_sums(alpha), tol=0.01)
    assert analysis.verdict == CONVERGED
    assert analysis.total == pytest.approx(1.0 / alpha, abs=1e-8)


def test_harmonic_windows_diverge():
    k = np.arange(80, dtype=float)
    sums = np.log((1.0 + (k + 1) * LN2) / (1.0 + k * LN2))
    analysis = analyze_sums(sums, tol=0.05)
    assert analysis.verdict == DIVERGED


def grouped_harmonic_sums(n_windows):
    # exact window integrals of 1/(1+t), the drift norm of log_inverse, grouped
    # by 4 as dini_R groups them
    k = np.arange(n_windows, dtype=float)
    return group_sums(np.log((1.0 + (k + 1) * LN2) / (1.0 + k * LN2)), 4)


@pytest.mark.parametrize("n_windows", [40, 80])
def test_grouped_harmonic_windows_diverge(n_windows):
    # at 40 windows the 10 groups fit a ratio of 0.87, below Q_GEOMETRIC, yet
    # the ratios climb toward 1: the power law fits better, and 1/k is not
    # summable
    analysis = analyze_sums(grouped_harmonic_sums(n_windows), tol=0.05)
    assert analysis.verdict == DIVERGED


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.3, 1.0), n=st.integers(8, 40))
def test_slow_power_sums_never_converge(p, n):
    sums = (np.arange(n) + 1.0) ** -p
    assert analyze_sums(sums, tol=math.inf).verdict != CONVERGED


@settings(max_examples=200, deadline=None)
@given(q=st.floats(0.0, 0.87, exclude_min=True), n=st.integers(8, 40))
def test_geometric_sums_never_diverge(q, n):
    sums = q ** np.arange(n, dtype=float)
    assert analyze_sums(sums, tol=math.inf).verdict != DIVERGED


@settings(max_examples=100, deadline=None)
@given(n=st.integers(8, 120))
def test_harmonic_verdict_keeps_its_side_when_windows_double(n):
    tol = 0.05  # the dini_R default
    verdicts = {analyze_sums(grouped_harmonic_sums(m), tol).verdict for m in (n, 2 * n)}
    assert verdicts != {CONVERGED, DIVERGED}


def test_inverse_square_windows_converge():
    k = np.arange(80, dtype=float)
    sums = 1.0 / (1.0 + k * LN2) - 1.0 / (1.0 + (k + 1) * LN2)
    analysis = analyze_sums(sums, tol=0.05)
    assert analysis.verdict == CONVERGED
    assert analysis.total == pytest.approx(1.0, abs=0.02)


def test_zero_sums_converge_trivially():
    analysis = analyze_sums(np.zeros(40), tol=1e-9)
    assert analysis.verdict == CONVERGED
    assert analysis.total == 0.0


def test_dyadic_window_sums_match_quadrature():
    sums = dyadic_window_sums(lambda t: np.exp(-t), 30)
    expect = np.exp(-np.arange(30) * LN2) * (1.0 - 0.5)
    assert np.allclose(sums, expect, atol=1e-13)


def _window_integral_alone(f, a, b):
    """The one-window Gauss-Legendre sum that `dyadic_window_sums` ran once
    per window, kept as the oracle of its one-call form."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ts = mid + half * tails._GL_NODES
    vals = np.asarray(f(ts), dtype=float)
    if vals.shape != ts.shape:
        vals = np.broadcast_to(vals, ts.shape)
    if not np.all(np.isfinite(vals)):
        t_bad = float(ts[~np.isfinite(vals)][0])
        raise tails.EvaluationError(
            f"integrand not finite at t={t_bad:.6g} (radius r={math.exp(-t_bad):.6g})")
    return float(half * np.dot(tails._GL_WEIGHTS, vals))


def _modulus_integrands():
    from regan.coeff import _guarded_eps, builtin_families, family_from_descriptor

    for name, desc in builtin_families().items():
        eps = _guarded_eps(family_from_descriptor(desc).modulus)
        yield name, eps
        yield name + "^2", lambda t, eps=eps: eps(t) ** 2


@pytest.mark.parametrize("name, f", [
    ("exp", lambda t: np.exp(-t)),
    ("cos_over_t", lambda t: np.cos(t) / (1.0 + t)),
    ("scalar", lambda t: 0.3),
    *_modulus_integrands()], ids=lambda v: v if isinstance(v, str) else "")
def test_dyadic_window_sums_are_one_call_and_bitwise_the_window_loop(name, f):
    calls = []
    sums = dyadic_window_sums(lambda t: calls.append(t.shape) or f(t), 120)
    assert calls == [(120 * 32,)]
    loop = [_window_integral_alone(f, k * LN2, (k + 1) * LN2) for k in range(120)]
    assert np.array_equal(sums, loop)
    assert window_integral(f, 2.0, 3.5) == _window_integral_alone(f, 2.0, 3.5)


def test_dyadic_window_sums_name_the_first_non_finite_node():
    # not finite from the middle of window 7 on
    f = lambda t: np.where(t > 7.5 * LN2, np.nan, 1.0)
    with pytest.raises(tails.EvaluationError) as got:
        dyadic_window_sums(f, 12)
    with pytest.raises(tails.EvaluationError) as want:
        for k in range(12):
            _window_integral_alone(f, k * LN2, (k + 1) * LN2)
    assert str(got.value) == str(want.value)
    t_bad = float(str(got.value).split("t=")[1].split()[0])
    assert 7.5 * LN2 < t_bad < 7.6 * LN2


def boundary_times(n=121):
    return np.arange(n) * LN2


def test_prefix_logarithmic_drift_fails():
    C = -0.5 * np.log(1.0 + boundary_times())
    assert bounded_oscillation_verdict(C, 1e-11).verdict == FAILS


def test_prefix_logarithmic_drift_fails_at_half_horizon():
    # the drift keeps one sign, so the sign rule must not excuse it
    verdict = bounded_oscillation_verdict(-0.5 * np.log(1.0 + boundary_times(61)), 1e-11)
    assert verdict.verdict == FAILS
    assert verdict.witness["drift_persistent"]


def cos_over_one_plus_t_prefix(t):
    # exact C(t) = int_0^t cos(tau)/(1+tau) dtau through the sine and cosine
    # integrals; it converges by cancellation (Dirichlet test)
    si, ci = sici(1.0 + t)
    si1, ci1 = sici(1.0)
    return math.cos(1.0) * (ci - ci1) + math.sin(1.0) * (si - si1)


@pytest.mark.parametrize("n_boundaries", [61, 121])
def test_prefix_cancelling_oscillation_holds(n_boundaries):
    # at 61 boundaries |drift| still trends like a divergent series, but the
    # group drifts change sign, so only the settling ranges decide
    C = cos_over_one_plus_t_prefix(boundary_times(n_boundaries))
    verdict = bounded_oscillation_verdict(C, 1e-11)
    assert verdict.verdict == HOLDS
    assert not verdict.witness["drift_persistent"]


def test_prefix_decaying_oscillation_holds():
    t = boundary_times()
    C = np.sin(t) / (1.0 + t)
    assert bounded_oscillation_verdict(C, 1e-11).verdict == HOLDS


def test_prefix_zero_holds():
    C = np.zeros(121)
    assert bounded_oscillation_verdict(C, 1e-11).verdict == HOLDS


def test_lower_bound_verdicts():
    t = boundary_times()
    falling = -0.5 * np.log(1.0 + t)
    rising = 0.5 * np.log(1.0 + t)
    settling = np.cos(t) / (1.0 + t)
    assert lower_bound_verdict(falling, 1e-11).verdict == FAILS
    assert lower_bound_verdict(rising, 1e-11).verdict == HOLDS
    assert lower_bound_verdict(settling, 1e-11).verdict == HOLDS


def test_extended_lower_verdicts():
    t = boundary_times()
    assert extended_lower_verdict(0.5 * np.log(1.0 + t), 1e-11).verdict == HOLDS
    assert extended_lower_verdict(-0.5 * np.log(1.0 + t), 1e-11).verdict == FAILS
    assert extended_lower_verdict(np.sin(t) / (1.0 + t), 1e-11).verdict == HOLDS
    # bounded but never settling: left open
    assert extended_lower_verdict(np.sin(0.2 * t), 1e-11).verdict == INCONCLUSIVE


def test_prefix_from_sums():
    C = prefix_from_sums([1.0, 2.0, 3.0])
    assert np.allclose(C, [0.0, 1.0, 3.0, 6.0])


def test_monotone_window_sums_never_cross():
    # omega1 <= omega2 pointwise implies window sums and partials ordered
    s1 = dyadic_window_sums(lambda t: 0.5 * np.exp(-t), 40)
    s2 = dyadic_window_sums(lambda t: np.exp(-t), 40)
    assert np.all(s1 <= s2 + 1e-15)
    a1, a2 = analyze_sums(s1, 1e-6), analyze_sums(s2, 1e-6)
    assert a1.partial <= a2.partial
