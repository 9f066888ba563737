import math
from collections import Counter

import numpy as np
import pytest

from regan.coeff import (constant_laplacian, make_harmonic_family,
                         make_radial_family, profile_log_inverse,
                         profile_log_oscillatory, profile_power)
from regan.criteria import (LIPSCHITZ, NONE, SECOND_ORDER, CriteriaSettings,
                            check_decoupled_case, check_dini_integrability,
                            check_iterated_integral, check_symmetric_part_bound,
                            criteria_conclusion, run_all_criteria)
from regan import dynsys
from regan.dynsys import (CONSTANT, STABLE, asymptotic_constancy_probe,
                          reduced_system, second_harmonic_system,
                          uniform_stability_probe)
from regan.moments import DEFAULT_QUADRATURE, moment_matrix, moment_vector

DINI_FIELD = make_harmonic_family("a", profile_power(0.3, 0.5), 2)
HARMONIC_FIELD = make_harmonic_family("a", profile_log_inverse(0.4), 2)
OSC_FIELD = make_harmonic_family("a", profile_log_oscillatory(0.4, 1.0), 2)


def by_id(results):
    return {r.id: r for r in results}


def test_dini_holds_on_constant_field():
    res = check_dini_integrability(reduced_system(constant_laplacian()))
    assert res.verdict == "holds"
    assert res.implied_conclusion == SECOND_ORDER
    assert res.witness["integral"]["total"] == pytest.approx(0.0, abs=1e-12)


def test_dini_holds_on_power_family():
    res = check_dini_integrability(reduced_system(DINI_FIELD))
    assert res.verdict == "holds"
    # |R| = g/2 entrywise max, so the t-integral is exactly gamma
    assert res.witness["integral"]["total"] == pytest.approx(0.3, abs=1e-6)


def test_dini_total_on_closed_form_system():
    # criteria read only R(t): for g(t) = gamma e^(-alpha t) the max entry of
    # |R| is g/2, whose integral over t is gamma / (2 alpha)
    res = check_dini_integrability(
        second_harmonic_system(lambda t: 0.3 * math.exp(-0.5 * t)))
    assert res.verdict == "holds"
    assert res.witness["integral"]["total"] == pytest.approx(0.3, abs=1e-6)


def test_dini_fails_on_harmonic_family():
    res = check_dini_integrability(reduced_system(HARMONIC_FIELD))
    assert res.verdict == "fails"
    assert res.implied_conclusion == NONE


def test_dini_not_satisfied_on_oscillatory_family():
    # |cos| has positive mean: the Dini-type integral still diverges
    res = check_dini_integrability(reduced_system(OSC_FIELD))
    assert res.verdict in ("fails", "inconclusive")


def test_symmetrized_eigenvalues_match_hand_oracle():
    # rank-two symmetrized drift: eigenvalues (-a1/2) (1 +- sqrt 2) and zeros
    field = make_harmonic_family("a", profile_power(0.3, 0.0), 2)
    R = moment_matrix(moment_vector(field, 0.5))
    S = -0.5 * (R + R.T)
    got = np.sort(np.linalg.eigvalsh(S))
    a1 = -0.15
    expect = np.sort([0.0, 0.0, (-a1 / 2.0) * (1.0 + math.sqrt(2.0)),
                      (-a1 / 2.0) * (1.0 - math.sqrt(2.0))])
    assert np.allclose(got, expect, atol=1e-12)


def test_eigenvalue_bound_verdicts():
    assert check_symmetric_part_bound(
        reduced_system(constant_laplacian())).verdict == "holds"
    assert check_symmetric_part_bound(
        reduced_system(HARMONIC_FIELD)).verdict == "fails"
    # signed oscillation does not help: the top eigenvalue is nonnegative
    assert check_symmetric_part_bound(reduced_system(OSC_FIELD)).verdict == "fails"


def test_iterated_integral_verdicts():
    assert check_iterated_integral(reduced_system(constant_laplacian())).verdict == "holds"
    res = check_iterated_integral(reduced_system(HARMONIC_FIELD))
    assert res.verdict == "inconclusive"
    assert "inner_divergent" in res.flags
    res = check_iterated_integral(reduced_system(OSC_FIELD))
    assert res.verdict == "holds"
    assert res.implied_conclusion == SECOND_ORDER


def test_special_case_detector():
    res = check_decoupled_case(reduced_system(
        make_harmonic_family("c", profile_power(0.2, 0.0), 2)))
    assert len(res) == 1
    assert res[0].verdict == "inconclusive"
    assert "not_applicable" in res[0].flags

    radial = check_decoupled_case(reduced_system(
        make_radial_family("b", profile_power(0.2, 0.5))))
    assert {r.id for r in radial} == {"special_a1_bounded", "special_a2_lower",
                                     "special_a1_converges", "special_a2_extended"}


def test_special_case_harmonic_family_fails_boundedness():
    got = by_id(check_decoupled_case(reduced_system(HARMONIC_FIELD)))
    assert got["special_a1_bounded"].verdict == "fails"
    assert got["special_a1_converges"].verdict == "fails"
    assert got["special_a2_lower"].verdict == "holds"     # a2 is identically 0
    assert all(r.implied_conclusion == NONE for r in got.values())


def test_special_case_oscillatory_family_holds():
    got = by_id(check_decoupled_case(reduced_system(OSC_FIELD)))
    assert got["special_a1_bounded"].verdict == "holds"
    assert got["special_a2_lower"].verdict == "holds"
    assert got["special_a1_converges"].verdict == "holds"
    assert got["special_a2_extended"].verdict == "holds"
    assert got["special_a1_bounded"].implied_conclusion == LIPSCHITZ
    assert got["special_a1_converges"].implied_conclusion == SECOND_ORDER


def test_special_case_sin_mode_declining_a2():
    field = make_harmonic_family("a", profile_log_inverse(0.4), 2,
                                 phase=-math.pi / 2)
    got = by_id(check_decoupled_case(reduced_system(field)))
    # a2 = -g/2 < 0 declines without bound
    assert got["special_a2_lower"].verdict == "fails"
    assert got["special_a2_extended"].verdict == "fails"


def test_conclusion_precedence():
    results = run_all_criteria(reduced_system(OSC_FIELD))
    assert criteria_conclusion(results) == SECOND_ORDER
    results = run_all_criteria(reduced_system(HARMONIC_FIELD))
    assert criteria_conclusion(results) == NONE
    results = run_all_criteria(reduced_system(DINI_FIELD))
    assert criteria_conclusion(results) == SECOND_ORDER


def test_run_all_criteria_evaluates_each_radius_once(monkeypatch):
    calls = Counter()
    single, batched = dynsys.moment_vector, dynsys.moment_vectors

    def counting(field, r, quad=DEFAULT_QUADRATURE):
        calls[r] += 1
        return single(field, r, quad)

    def counting_batch(field, radii, quad=DEFAULT_QUADRATURE):
        calls.update(float(r) for r in radii)
        return batched(field, radii, quad)

    monkeypatch.setattr(dynsys, "moment_vector", counting)
    monkeypatch.setattr(dynsys, "moment_vectors", counting_batch)
    # a radial family on b keeps the decoupled case (and its a-moments) active
    results = run_all_criteria(
        reduced_system(make_radial_family("b", profile_power(0.2, 0.5))),
        CriteriaSettings(n_windows=16, prefix_windows=24))
    assert "special_a1_bounded" in by_id(results)
    assert calls and max(calls.values()) == 1


def test_monotone_in_amplitude():
    # shrinking the perturbation never flips holds to fails
    for gamma in (0.05, 0.15, 0.3):
        field = make_harmonic_family("a", profile_power(gamma, 0.5), 2)
        assert check_dini_integrability(reduced_system(field)).verdict == "holds"
    for gamma in (0.1, 0.25, 0.4):
        field = make_harmonic_family("a", profile_log_oscillatory(gamma, 1.0), 2)
        assert check_iterated_integral(reduced_system(field)).verdict == "holds"


def test_criteria_probe_agreement_on_dini_family():
    # a holding Dini criterion must come with stable + constant probes
    sys = reduced_system(DINI_FIELD)
    assert uniform_stability_probe(sys, [0.0, 2.0, 5.0], 30.0).uniform_stability == STABLE
    assert asymptotic_constancy_probe(sys, 1.0, 30.0).asymptotic_constancy == CONSTANT
