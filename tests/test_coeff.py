import math

import numpy as np
import pytest

from regan import coeff
from regan.coeff import (CoefficientField, ModulusOfContinuity, classify_modulus,
                         constant_laplacian, family_from_descriptor,
                         make_harmonic_family, make_radial_family,
                         make_trig_field, profile_log_inverse,
                         profile_log_oscillatory, profile_power, profile_zero,
                         validate_field)
from regan.tails import EvaluationError


def modulus_from(fn, label="test"):
    return ModulusOfContinuity(lambda r: fn(np.asarray(r, dtype=float)), label)


def test_zero_profile_gives_constant_field():
    field = make_harmonic_family("a", profile_zero(), 4)
    x = np.linspace(-0.5, 0.5, 11)
    a, b, c = field.coefficients(x, x[::-1])
    assert np.allclose(a, 1.0) and np.allclose(b, 0.0) and np.allclose(c, 1.0)


def test_harmonic_family_rejects_low_modes_and_big_profiles():
    with pytest.raises(ValueError, match="angular_mode"):
        make_harmonic_family("a", profile_zero(), 1)
    with pytest.raises(ValueError, match="1/2"):
        make_harmonic_family("a", profile_power(gamma=0.8, alpha=0.0), 2)
    with pytest.raises(ValueError, match="target"):
        make_harmonic_family("d", profile_zero(), 2)


def test_harmonic_family_values():
    field = make_harmonic_family("a", profile_log_inverse(0.4), 2, phase=0.0)
    r = 0.25
    phi = np.array([0.0, math.pi / 4, math.pi / 2])
    g = 0.4 / (1.0 + math.log(1.0 / r))
    a, b, c = field.coefficients(r * np.cos(phi), r * np.sin(phi))
    assert a == pytest.approx([1.0 + g, 1.0, 1.0 - g], abs=1e-14)
    assert np.allclose(b, 0.0) and np.allclose(c, 1.0)


# a grid through the origin and past the unit circle, where the
# coefficients keep their unit-circle values
_XS = np.linspace(-1.5, 1.5, 13)
_GX, _GY = np.meshgrid(_XS, _XS, indexing="ij")


@pytest.mark.parametrize("target", ["a", "b", "c"])
@pytest.mark.parametrize("profile", [profile_log_inverse(0.4),
                                     profile_power(0.3, 0.5)],
                         ids=lambda p: p.label)
@pytest.mark.parametrize("mode, phase", [(0, 0.0), (2, 0.0), (3, -1.25),
                                         (coeff.MAX_MODE, 2.0 * math.pi)])
def test_profile_families_evaluate_their_formula_bitwise(target, profile,
                                                        mode, phase):
    r = np.minimum(np.hypot(_GX, _GY), 1.0)
    g = profile.g(np.maximum(r, 1e-300))
    if mode == 0:
        field = make_radial_family(target, profile)
        perturbation = g
    else:
        field = make_harmonic_family(target, profile, mode, phase)
        perturbation = np.where(r > 0, g, 0.0) * np.cos(
            mode * np.arctan2(_GY, _GX) + phase)
    expect = {"a": np.ones_like(r), "b": np.zeros_like(r), "c": np.ones_like(r)}
    expect[target] = (0.0 if target == "b" else 1.0) + perturbation
    for got, name in zip(field.coefficients(_GX, _GY), "abc"):
        assert np.array_equal(got, expect[name]), name


@pytest.mark.parametrize("mode, phase, message", [
    (coeff.MAX_MODE + 1, 0.0, "angular_mode must lie in"),
    (10**400, 0.0, "angular_mode must lie in"),
    (2.5, 0.0, "angular_mode"),
    (2, 2.0 * math.pi + 1e-9, "phase must lie in"),
    (2, -1e15, "phase must lie in"),
    (2, float("nan"), "phase must lie in"),
])
def test_harmonic_family_bounds_mode_and_phase(mode, phase, message):
    with pytest.raises(ValueError, match=message):
        make_harmonic_family("a", profile_log_inverse(0.4), mode, phase)


@pytest.mark.parametrize("degree", [-1, coeff.MAX_MODE + 1, coeff.MAX_MODE + 3])
def test_trig_field_bounds_its_degree(degree):
    # degree 62 would alias in the circle quadrature (see the module docstring)
    with pytest.raises(ValueError, match="degree must lie in"):
        make_trig_field(seed=1, degree=degree)
    make_trig_field(seed=1, degree=coeff.MAX_MODE)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_classify_power_modulus(alpha):
    m = modulus_from(lambda r, alpha=alpha: r**alpha)
    got = classify_modulus(m, tol=0.01)
    assert got.dini.verdict == got.square_dini.verdict == "converged"
    assert got.dini.total == pytest.approx(1.0 / alpha, abs=1e-8)
    assert got.square_dini.total == pytest.approx(1.0 / (2.0 * alpha), abs=1e-8)


def test_classify_log_inverse_modulus():
    m = modulus_from(lambda r: 1.0 / (1.0 + np.log(1.0 / r)))
    got = classify_modulus(m, tol=0.05)
    assert got.dini.verdict == "diverged"
    assert got.square_dini.verdict == "converged"
    # exact square-Dini integral is 1
    assert got.square_dini.total == pytest.approx(1.0, abs=0.01)


def test_classify_zero_modulus():
    got = classify_modulus(constant_laplacian().modulus, tol=1e-9)
    assert got.dini.verdict == got.square_dini.verdict == "converged"
    assert got.dini.total == 0.0


def test_classify_monotone_comparison():
    small = classify_modulus(modulus_from(lambda r: 0.5 * r**0.5), tol=0.01)
    large = classify_modulus(modulus_from(lambda r: r**0.5), tol=0.01)
    assert large.dini.verdict == "converged"
    assert small.dini.partial <= large.dini.partial
    assert np.all(np.asarray(small.dini.sums) <= np.asarray(large.dini.sums) + 1e-15)


def test_classify_rejects_positive_tol_only():
    with pytest.raises(ValueError):
        classify_modulus(constant_laplacian().modulus, tol=0.0)


def test_classify_names_failing_radius():
    def bad(r):
        out = np.asarray(r, dtype=float).copy()
        out[out < 1e-6] = np.nan
        return out

    with pytest.raises(EvaluationError, match="r="):
        classify_modulus(modulus_from(bad), tol=0.01)


def test_validate_constant_field():
    report = validate_field(constant_laplacian())
    assert report.passes
    assert report.max_violation == pytest.approx(0.0, abs=1e-15)
    assert report.min_discriminant == pytest.approx(4.0, abs=1e-14)


def test_validate_log_inverse_family():
    field = make_harmonic_family("a", profile_log_inverse(0.4), 2)
    report = validate_field(field)
    assert report.passes
    # min of 4ac - b^2 on the largest sampled circle is 4 (1 - g(r))
    g_top = 0.4 / (1.0 + math.log(2.0))
    assert report.min_discriminant == pytest.approx(4.0 * (1.0 - g_top), rel=1e-6)
    assert report.modulus_nondecreasing and report.modulus_vanishes


def test_validate_flags_constant_b():
    field = CoefficientField(
        lambda x, y: (np.ones_like(x), np.full_like(x, 0.3), np.ones_like(x)),
        modulus_from(lambda r: 0.3 * r), 1.0)
    report = validate_field(field)
    assert not report.passes
    assert np.all(report.violations > 0)  # violated at every sampled radius


def test_oscillatory_envelope_is_monotone():
    field = make_harmonic_family("a", profile_log_oscillatory(0.4, 1.0), 2)
    report = validate_field(field)
    assert report.passes and report.modulus_nondecreasing


def test_radial_family_and_trig_field_validate():
    assert validate_field(make_radial_family("a", profile_log_inverse(0.4))).passes
    report = validate_field(make_trig_field(seed=3))
    assert report.passes
    assert not report.modulus_vanishes  # constant modulus: flagged, not fatal


def test_family_descriptor_roundtrip():
    desc = {"family": "harmonic", "target": "a",
            "profile": {"kind": "log_inverse", "gamma": 0.4},
            "mode": 2, "phase": 0.0}
    field = family_from_descriptor(desc)
    assert "harmonic" in field.label
    with pytest.raises(ValueError, match="unknown descriptor keys"):
        family_from_descriptor({**desc, "typo": 1})
    with pytest.raises(ValueError, match="unknown profile kind"):
        family_from_descriptor({**desc, "profile": {"kind": "nope"}})
    for name, d in coeff.builtin_families().items():
        family_from_descriptor(d)


@pytest.mark.parametrize("desc, message", [
    ({"profile": {"kind": "log_inverse", "gamma": float("nan")}}, "gamma must be finite"),
    ({"profile": {"kind": "log_inverse", "gamma": [0.4]}}, "gamma must be a number"),
    ({"profile": {"kind": ["log_inverse"]}}, "unknown profile kind"),
    ({"profile": 7}, "needs a 'kind'"),
    ({"mode": None}, "mode must be a number"),
    ({"phase": float("inf")}, "phase must be finite"),
    ({"family": "trig_random", "seed": float("inf")}, "seed must be a number"),
    ({"family": "trig_random", "seed": 1, "degree": 10**9}, "degree must lie in"),
])
def test_family_descriptor_rejects_bad_values(desc, message):
    base = {"family": "harmonic", "target": "a",
            "profile": {"kind": "log_inverse", "gamma": 0.4}, "mode": 2}
    if desc.get("family") == "trig_random":
        base = {}
    with pytest.raises(ValueError, match=message):
        family_from_descriptor({**base, **desc})


def test_modulus_eps_matches_analytic_tail():
    prof = profile_log_inverse(0.4)
    field = make_harmonic_family("a", prof, 2)
    ts = np.linspace(0.0, 30.0, 7)
    assert np.allclose(field.modulus(np.exp(-ts)), 0.4 / (1.0 + ts), rtol=1e-12)


def trig_oracle(seed, degree, amplitude=0.2):
    """a, b and c of `make_trig_field` by the per-coefficient formula: each
    evaluator takes its own angle and its own cos, sin pair per mode."""
    rng = np.random.default_rng(seed)
    evaluators = []
    for base in (1.0, 0.0, 1.0):
        alpha = rng.uniform(-1.0, 1.0, degree + 1)
        beta = rng.uniform(-1.0, 1.0, degree + 1)
        beta[0] = 0.0
        total = np.sum(np.abs(alpha)) + np.sum(np.abs(beta))
        alpha, beta = alpha * amplitude / total, beta * amplitude / total

        def evaluate(x, y, alpha=alpha, beta=beta, base=base):
            phi = np.arctan2(np.asarray(y, dtype=float), np.asarray(x, dtype=float))
            out = np.full_like(phi, base, dtype=float)
            for n in range(degree + 1):
                out = out + alpha[n] * np.cos(n * phi) + beta[n] * np.sin(n * phi)
            return out

        evaluators.append(evaluate)
    return evaluators


def _trig_points():
    signed = [0.0, -0.0, 0.5, -0.5, 1.5, -2.0]
    x, y = np.meshgrid(signed, signed, indexing="ij")
    phi = 2.0 * math.pi * np.arange(64) / 64
    r = np.array([1e-300, 1e-8, 0.3, 1.0, 3.0])[:, None]
    return (np.concatenate([x.ravel(), np.ravel(r * np.cos(phi))]),
            np.concatenate([y.ravel(), np.ravel(r * np.sin(phi))]))


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                        np.signbit(want))


@pytest.mark.parametrize("degree", [0, 6, 59])
@pytest.mark.parametrize("seed", range(8))
def test_trig_field_evaluates_a_b_c_as_the_per_coefficient_formula(seed, degree):
    field = make_trig_field(seed, degree)
    x, y = _trig_points()
    want = [fn(x, y) for fn in trig_oracle(seed, degree)]
    for got, expected in zip(field.coefficients(x, y), want):
        assert _same_bits(got, expected)
    # on a (radii x nodes) grid, as the circle quadrature asks
    grid_x, grid_y = np.reshape(x[36:], (5, 64)), np.reshape(y[36:], (5, 64))
    for got, expected in zip(field.coefficients(grid_x, grid_y), want):
        assert got.shape == (5, 64) and _same_bits(got.ravel(), expected[36:])


@pytest.mark.parametrize("degree", [0, 6, 59])
def test_trig_field_takes_one_cos_and_one_sin_per_mode(monkeypatch, degree):
    x, y = _trig_points()
    field = make_trig_field(1, degree)
    calls = {"cos": 0, "sin": 0}
    for name in calls:
        def counted(*args, _ufunc=getattr(np, name), _name=name, **kwargs):
            calls[_name] += 1
            return _ufunc(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    field.coefficients(x, y)
    assert calls == {"cos": degree + 1, "sin": degree + 1}
