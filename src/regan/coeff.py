"""Coefficient fields for the planar operator a*u_xx + b*u_xy + c*u_yy.

Fields are normalized at the origin (a, b, c) -> (1, 0, 1) and declare a
modulus of continuity bounding sup_{|x|=r} (|a-1| + |b| + |c-1|).  All
evaluators are vectorized over numpy arrays and immutable after
construction, so they are safe for concurrent read-only use.  Coefficients
are extended by their unit-circle values for r > 1; only r <= 1 is ever
analyzed.  Every layer evaluates a field through
`CoefficientField.coefficients`; a `trig_random` field answers it with one
pass for a, b and c, which shares the angle and each mode's cos and sin.

MAX_MODE bounds the mode n of a harmonic family and the degree of a
`trig_random` field: the circle quadrature weighs the coefficients by theta
monomials of degree <= 4, which its 64-node level integrates exactly up to
mode 59.  Past that its 32- and 64-node levels can agree on an aliased
value (modes 60 to 68 do), and far past it a run chases the node cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from . import tails
from .tails import EvaluationError, TailAnalysis


@dataclass(frozen=True)
class ModulusOfContinuity:
    """Nondecreasing bound omega(r) on the coefficient oscillation at radius r."""

    omega: Callable[[np.ndarray], np.ndarray]
    label: str = "omega"

    def __call__(self, r):
        return self.omega(np.minimum(np.asarray(r, dtype=float), 1.0))


@dataclass(frozen=True)
class CoefficientField:
    """Evaluators for a, b, c on the punctured unit disk plus declared bounds.

    `coefficients(x, y)` is the one method through which every layer
    evaluates a field.  A field whose three coefficients share their work
    can also carry `_abc`, an evaluator of (a, b, c) in one pass, which
    `coefficients` then calls in place of a, b and c; a, b and c stay its
    one-name cases.  `_abc` is set after construction, not passed to it,
    so a copy made by `dataclasses.replace` drops it and evaluates the a,
    b and c it was given.
    """

    a: Callable
    b: Callable
    c: Callable
    modulus: ModulusOfContinuity
    ellipticity_lower: float
    label: str = "field"
    _abc: Optional[Callable] = dc_field(default=None, init=False, repr=False,
                                        compare=False)

    def coefficients(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self._abc is not None:
            return self._abc(x, y)
        return self.a(x, y), self.b(x, y), self.c(x, y)


def _one(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def _zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def constant_laplacian() -> CoefficientField:
    """The unperturbed field a = c = 1, b = 0."""
    modulus = ModulusOfContinuity(lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                                  label="zero")
    return CoefficientField(_one, _zero, _one, modulus, ellipticity_lower=4.0,
                            label="constant")


# ---------------------------------------------------------------------------
# Radial profiles g(r) for the built-in families.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """A radial amplitude g(r) plus its nondecreasing envelope |g| <= env."""

    g: Callable[[np.ndarray], np.ndarray]
    envelope: Callable[[np.ndarray], np.ndarray]
    label: str


def profile_zero() -> RadialProfile:
    z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return RadialProfile(z, z, "zero")


def profile_power(gamma: float, alpha: float) -> RadialProfile:
    """g(r) = gamma * r^alpha; Dini for alpha > 0."""
    g = lambda r: gamma * np.asarray(r, dtype=float) ** alpha
    return RadialProfile(g, g, f"power(gamma={gamma}, alpha={alpha})")


def profile_log_inverse(gamma: float) -> RadialProfile:
    """g(r) = gamma / (1 + log(1/r)); square-Dini but not Dini."""

    def g(r):
        r = np.asarray(r, dtype=float)
        return gamma / (1.0 + np.log(1.0 / r))

    return RadialProfile(g, g, f"log_inverse(gamma={gamma})")


# the largest |eta| of `profile_log_oscillatory`: a run's steps and radii
# grow with the oscillation rate (a default probes stage took 1.3 s at
# eta = 1 and 80 s at eta = 1000), so a larger eta is refused up front
MAX_ETA = 100.0


def profile_log_oscillatory(gamma: float, eta: float) -> RadialProfile:
    """g(r) = gamma * cos(eta*log(1/r)) / (1 + log(1/r)), for |eta| <= MAX_ETA.

    Sign changes make |g| non-monotone, so the declared envelope is the
    monotone majorant gamma / (1 + log(1/r)).
    """
    if not abs(eta) <= MAX_ETA:
        raise ValueError(f"eta must lie in [-{MAX_ETA:g}, {MAX_ETA:g}], got {eta!r}")

    def g(r):
        r = np.asarray(r, dtype=float)
        t = np.log(1.0 / r)
        return gamma * np.cos(eta * t) / (1.0 + t)

    env = profile_log_inverse(gamma)
    return RadialProfile(g, env.g, f"log_oscillatory(gamma={gamma}, eta={eta})")


_PROFILE_KINDS = {
    "zero": (profile_zero, ()),
    "power": (profile_power, ("gamma", "alpha")),
    "log_inverse": (profile_log_inverse, ("gamma",)),
    "log_oscillatory": (profile_log_oscillatory, ("gamma", "eta")),
}


def _finite(value) -> bool:
    """True for a finite number; an int too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def as_number(value, kind=float):
    """value as a number of kind, worded for a key's name on refusal.

    An int kind takes integers only; a float kind takes integers and
    floats, returns a float and refuses what is not finite.  Neither takes
    a bool or a string, so JSON `true`, `"16"` and `24.9` never become a
    count.  ValueError says what was wanted ("must be a number, got '30'").
    """
    if kind is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ValueError(f"must be a number of type int, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    if not _finite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return float(value)


def _number(desc: dict, key: str, kind=float, default=None):
    """desc[key] (or default) as `as_number` of kind; ValueError names the key."""
    try:
        return as_number(desc.get(key, default), kind)
    except ValueError as exc:
        raise ValueError(f"{key} {exc}") from None


def profile_from_descriptor(desc: dict) -> RadialProfile:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("profile descriptor needs a 'kind'")
    kind = desc["kind"]
    if not isinstance(kind, str) or kind not in _PROFILE_KINDS:
        raise ValueError(f"unknown profile kind {kind!r}")
    maker, params = _PROFILE_KINDS[kind]
    extra = set(desc) - {"kind"} - set(params)
    if extra:
        raise ValueError(f"unknown profile keys {sorted(extra)} for kind {kind!r}")
    missing = set(params) - set(desc)
    if missing:
        raise ValueError(f"profile kind {kind!r} missing {sorted(missing)}")
    return maker(**{p: _number(desc, p) for p in params})


# ---------------------------------------------------------------------------
# Family constructors.
# ---------------------------------------------------------------------------

_TARGETS = ("a", "b", "c")
_PROFILE_CHECK_RADII = 2.0 ** -np.arange(0, 40, dtype=float)

# the largest harmonic mode and trig_random degree (see the module docstring)
MAX_MODE = 59


def _profile_family(target: str, radial_profile: RadialProfile, mode: int,
                    phase: float = 0.0) -> CoefficientField:
    """Field with one coefficient perturbed by g(r) * cos(mode*phi + phase),
    or by g(r) alone for mode 0, whose modulus is the envelope of g.
    |g| <= 1/2 is enforced on a dyadic grid."""
    if target not in _TARGETS:
        raise ValueError(f"target must be one of {_TARGETS}")
    vals = np.abs(np.asarray(radial_profile.g(_PROFILE_CHECK_RADII), dtype=float))
    if np.any(vals > 0.5 + 1e-12):
        k = int(np.argmax(vals > 0.5 + 1e-12))
        raise ValueError(f"|g| exceeds 1/2 at r={_PROFILE_CHECK_RADII[k]:.3g} "
                         f"(value {vals[k]:.3g}); ellipticity would be at risk")
    base = 0.0 if target == "b" else 1.0

    def perturbed(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.minimum(np.hypot(x, y), 1.0)
        if mode == 0:
            g = np.asarray(radial_profile.g(np.maximum(r, 1e-300)), dtype=float)
            return base + g * np.ones_like(r)
        g = np.where(r > 0, radial_profile.g(np.maximum(r, 1e-300)), 0.0)
        return base + g * np.cos(mode * np.arctan2(y, x) + phase)

    evals = {"a": _one, "b": _zero, "c": _one, target: perturbed}
    modulus = ModulusOfContinuity(
        lambda r: np.abs(np.asarray(radial_profile.envelope(np.asarray(r, dtype=float)))),
        label=radial_profile.label,
    )
    label = (f"radial({target}, {radial_profile.label})" if mode == 0
             else f"harmonic({target}, n={mode}, {radial_profile.label})")
    return CoefficientField(evals["a"], evals["b"], evals["c"], modulus,
                            ellipticity_lower=2.0, label=label)


def make_harmonic_family(target: str, radial_profile: RadialProfile,
                         angular_mode: int, phase: float = 0.0) -> CoefficientField:
    """Field with one coefficient perturbed by g(r) * cos(n*phi + phase).

    Angular modes 2 <= n <= MAX_MODE only: modes 0 and 1 would break the
    normalization (a, b, c)(0) = (1, 0, 1).  |phase| <= 2 pi.
    """
    if int(angular_mode) != angular_mode or not 2 <= angular_mode <= MAX_MODE:
        raise ValueError(f"angular_mode must lie in [2, {MAX_MODE}] and be an integer")
    if not abs(phase) <= 2.0 * math.pi:
        raise ValueError(f"phase must lie in [-2 pi, 2 pi], got {phase!r}")
    return _profile_family(target, radial_profile, int(angular_mode), phase)


def make_radial_family(target: str, radial_profile: RadialProfile) -> CoefficientField:
    """Field with one coefficient perturbed radially: no angular dependence."""
    return _profile_family(target, radial_profile, 0)


def make_trig_field(seed: int, degree: int = 6, amplitude: float = 0.2) -> CoefficientField:
    """Random trigonometric-polynomial perturbations of all three coefficients.

    Each coefficient gets sum_n (alpha_n cos n*phi + beta_n sin n*phi) with
    n <= degree and sum |alpha| + |beta| = amplitude, constant in r.  Used
    for cross-check suites where only the circle structure matters.  The
    amplitude must lie in [0, 1/2], the bound on |g| of the profile
    families, so that a, c >= 1/2 and the declared ellipticity holds.  The
    degree must lie in [0, MAX_MODE].

    `coefficients` evaluates the three sums in one pass: one arctan2, and
    per mode n one cos(n phi) and one sin(n phi), which update each sum as
    out + alpha_n cos + beta_n sin.  That is each sum's own expression in
    its own order, so a, b and c are bit for bit what one pass per
    coefficient gives; `field.a`, `field.b` and `field.c` are the one-sum
    cases of the same pass.
    """
    if not 0 <= degree <= MAX_MODE:
        raise ValueError(f"degree must lie in [0, {MAX_MODE}]")
    if not 0.0 <= amplitude <= 0.5:
        raise ValueError(f"amplitude must lie in [0, 0.5], got {amplitude!r}")
    rng = np.random.default_rng(seed)
    coeffs = {}
    for name in _TARGETS:
        alpha = rng.uniform(-1.0, 1.0, degree + 1)
        beta = rng.uniform(-1.0, 1.0, degree + 1)
        beta[0] = 0.0
        total = np.sum(np.abs(alpha)) + np.sum(np.abs(beta))
        coeffs[name] = (alpha * amplitude / total, beta * amplitude / total)

    def evaluate(x, y, names=_TARGETS):
        """The sums of `names` at (x, y), one array each, from one angle and
        one cos, sin pair per mode."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        phi = np.arctan2(y, x)
        outs = [np.full_like(phi, 0.0 if name == "b" else 1.0, dtype=float)
                for name in names]
        for n in range(degree + 1):
            cos, sin = np.cos(n * phi), np.sin(n * phi)
            outs = [out + coeffs[name][0][n] * cos + coeffs[name][1][n] * sin
                    for out, name in zip(outs, names)]
        return tuple(outs)

    def one(name):
        return lambda x, y: evaluate(x, y, (name,))[0]

    modulus = ModulusOfContinuity(
        lambda r: np.full_like(np.asarray(r, dtype=float), 3.0 * amplitude),
        label=f"const({3.0 * amplitude})",
    )
    lam = 4.0 * (1.0 - amplitude) ** 2 - amplitude**2
    field = CoefficientField(one("a"), one("b"), one("c"), modulus,
                             ellipticity_lower=lam, label=f"trig(seed={seed})")
    object.__setattr__(field, "_abc", evaluate)
    return field


# ---------------------------------------------------------------------------
# Descriptor loading (the CLI config format) and built-in registry.
# ---------------------------------------------------------------------------


def family_from_descriptor(desc: dict) -> CoefficientField:
    """Build a field from a JSON-style descriptor.

    {"family": "harmonic", "target": "a",
     "profile": {"kind": "log_inverse", "gamma": 0.4}, "mode": 2, "phase": 0.0}
    """
    if not isinstance(desc, dict) or "family" not in desc:
        raise ValueError("family descriptor must be a dict with a 'family' key")
    kind = desc["family"]
    if kind == "constant":
        _require_keys(desc, {"family"})
        return constant_laplacian()
    if kind == "harmonic":
        _require_keys(desc, {"family", "target", "profile", "mode", "phase"},
                      optional={"phase"})
        return make_harmonic_family(desc["target"],
                                    profile_from_descriptor(desc["profile"]),
                                    _number(desc, "mode", int),
                                    _number(desc, "phase", float, 0.0))
    if kind == "radial":
        _require_keys(desc, {"family", "target", "profile"})
        return make_radial_family(desc["target"],
                                  profile_from_descriptor(desc["profile"]))
    if kind == "trig_random":
        _require_keys(desc, {"family", "seed", "degree", "amplitude"},
                      optional={"degree", "amplitude"})
        return make_trig_field(_number(desc, "seed", int),
                               _number(desc, "degree", int, 6),
                               _number(desc, "amplitude", float, 0.2))
    raise ValueError(f"unknown family kind {kind!r}")


def _require_keys(desc, allowed, optional=frozenset()):
    extra = set(desc) - set(allowed)
    if extra:
        raise ValueError(f"unknown descriptor keys {sorted(extra)}")
    missing = set(allowed) - set(desc) - set(optional)
    if missing:
        raise ValueError(f"descriptor missing keys {sorted(missing)}")


def builtin_families() -> dict:
    """Named descriptors for the shipped analytic families."""
    return {
        "constant": {"family": "constant"},
        "dini_power": {"family": "harmonic", "target": "a",
                       "profile": {"kind": "power", "gamma": 0.3, "alpha": 0.5},
                       "mode": 2, "phase": 0.0},
        "square_dini_log": {"family": "harmonic", "target": "a",
                            "profile": {"kind": "log_inverse", "gamma": 0.4},
                            "mode": 2, "phase": 0.0},
        "oscillatory_log": {"family": "harmonic", "target": "a",
                            "profile": {"kind": "log_oscillatory", "gamma": 0.4,
                                        "eta": 1.0},
                            "mode": 2, "phase": 0.0},
        "radial_log": {"family": "radial", "target": "a",
                       "profile": {"kind": "log_inverse", "gamma": 0.4}},
    }


# ---------------------------------------------------------------------------
# Modulus classification (Dini / square-Dini) and field validation.
# ---------------------------------------------------------------------------


@dataclass
class ModulusClassification:
    """Three-valued verdicts for the Dini and square-Dini integrals."""

    dini: TailAnalysis
    square_dini: TailAnalysis


def _guarded_eps(m: ModulusOfContinuity):
    def f(ts):
        rs = np.exp(-np.asarray(ts, dtype=float))
        try:
            vals = np.asarray(m(rs), dtype=float)
        except Exception as exc:  # noqa: BLE001 - rewrap with the radius
            raise EvaluationError(f"modulus evaluation failed near r={rs.min():.6g}: {exc}") from exc
        if vals.shape != rs.shape:
            vals = np.broadcast_to(vals, rs.shape)
        if not np.all(np.isfinite(vals)):
            r_bad = float(rs[~np.isfinite(vals)][0])
            raise EvaluationError(f"modulus not finite at r={r_bad:.6g}")
        return vals

    return f


def classify_modulus(m: ModulusOfContinuity, tol: float,
                     n_windows: int = 60) -> ModulusClassification:
    """Dyadic-window verdicts for integral(omega/r) and integral(omega^2/r).

    In t = -log r both integrals become plain integrals of eps(t) and
    eps(t)^2 over uniform windows; tails are extrapolated per
    `tails.analyze_sums` (heuristic, three-valued).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    eps = _guarded_eps(m)
    s1 = tails.dyadic_window_sums(eps, n_windows)
    s2 = tails.dyadic_window_sums(lambda t: eps(t) ** 2, n_windows)
    return ModulusClassification(tails.analyze_sums(s1, tol),
                                 tails.analyze_sums(s2, tol))


@dataclass
class FieldValidation:
    """Normalization-bound and ellipticity report over sampled circles."""

    radii: np.ndarray
    violations: np.ndarray       # per radius: max (|a-1|+|b|+|c-1|) - omega(r)
    min_discriminant: float      # min over samples of 4ac - b^2
    max_violation: float
    passes: bool
    modulus_nondecreasing: bool
    modulus_vanishes: bool


def dyadic_radii(count: int) -> np.ndarray:
    """The radii 2^-1, ..., 2^-count."""
    return 2.0 ** -np.arange(1, 1 + count, dtype=float)


# samples per circle of `validate_field`
VALIDATION_NODES = 256


def validate_field(field: CoefficientField, radii=None) -> FieldValidation:
    """Check the declared modulus bound and ellipticity on sampled circles."""
    if radii is None:
        radii = dyadic_radii(20)
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0) or np.any(radii > 1):
        raise ValueError("radii must lie in (0, 1]")
    phi = np.linspace(0.0, 2.0 * math.pi, VALIDATION_NODES, endpoint=False)
    violations = np.empty_like(radii)
    min_disc = math.inf
    for k, r in enumerate(radii):
        x, y = r * np.cos(phi), r * np.sin(phi)
        a, b, c = field.coefficients(x, y)
        osc = np.abs(a - 1.0) + np.abs(b) + np.abs(c - 1.0)
        violations[k] = float(np.max(osc) - field.modulus(r))
        min_disc = min(min_disc, float(np.min(4.0 * a * c - b * b)))
    omega_vals = np.asarray(field.modulus(radii[np.argsort(radii)]), dtype=float)
    nondecreasing = bool(np.all(np.diff(omega_vals) >= -1e-13))
    # vanishing trend: the smallest sampled values should not exceed the largest
    small, large = omega_vals[0], omega_vals[-1]
    vanishes = bool(small <= 0.25 * large + 1e-13 or large <= 1e-13)
    max_violation = float(np.max(violations))
    passes = (max_violation <= 1e-12
              and min_disc >= field.ellipticity_lower - 1e-12)
    return FieldValidation(radii, violations, min_disc, max_violation, passes,
                           nondecreasing, vanishes)
