import math
from collections import Counter

import numpy as np
import pytest

from regan import tails
from regan.coeff import (builtin_families, constant_laplacian,
                         family_from_descriptor, make_harmonic_family,
                         make_radial_family, profile_log_inverse,
                         profile_log_oscillatory, profile_power)
from regan.criteria import (LIPSCHITZ, NONE, SECOND_ORDER,
                            check_decoupled_case, check_dini_integrability,
                            check_iterated_integral, check_symmetric_part_bound,
                            criteria_conclusion, run_all_criteria)
from regan import dynsys
from regan.dynsys import (CONSTANT, STABLE, ReducedSystem,
                          asymptotic_constancy_probe, second_harmonic_system,
                          uniform_stability_probe)
from regan.moments import DEFAULT_QUADRATURE, moment_matrix, moment_vector

DINI_FIELD = make_harmonic_family("a", profile_power(0.3, 0.5), 2)
HARMONIC_FIELD = make_harmonic_family("a", profile_log_inverse(0.4), 2)
OSC_FIELD = make_harmonic_family("a", profile_log_oscillatory(0.4, 1.0), 2)


def by_id(results):
    return {r.id: r for r in results}


def test_dini_holds_on_constant_field():
    res = check_dini_integrability(ReducedSystem(constant_laplacian()))
    assert res.verdict == "holds"
    assert res.implied_conclusion == SECOND_ORDER
    assert res.witness["integral"]["total"] == pytest.approx(0.0, abs=1e-12)


def test_dini_holds_on_power_family():
    res = check_dini_integrability(ReducedSystem(DINI_FIELD))
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
    res = check_dini_integrability(ReducedSystem(HARMONIC_FIELD))
    assert res.verdict == "fails"
    assert res.implied_conclusion == NONE


def test_dini_not_satisfied_on_oscillatory_family():
    # |cos| has positive mean: the Dini-type integral still diverges
    res = check_dini_integrability(ReducedSystem(OSC_FIELD))
    assert res.verdict in ("fails", "inconclusive")


def test_dini_on_oscillatory_family_settles_slowly():
    # current behaviour, pinned so that a tuning change shows here: the
    # max-abs window sums plateau near 0.011 for groups 10-12, so the power
    # fit at 40 and 80 windows reads p_hat >= 1 + P_MARGIN and leaves the
    # verdict inconclusive; 160 windows see the divergence
    system = ReducedSystem(OSC_FIELD)
    verdicts = {n: check_dini_integrability(
        system, n_windows=n).verdict
        for n in (40, 80, 160)}
    assert "holds" not in verdicts.values()
    assert verdicts == {40: "inconclusive", 80: "inconclusive", 160: "fails"}


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5, short series: at 16 windows iterated_L1 and "
    "eigenvalue_bound read holds on a square-Dini-only family"))
def test_short_series_do_not_bend_the_square_dini_conclusion():
    # square_dini_log (HARMONIC_FIELD) has no second-order guarantee by
    # theory, and the criteria conclusion is none at every window count
    # from 8 to 80 except this one; the change that mends the short-series
    # rule removes the xfail marker
    results = run_all_criteria(ReducedSystem(HARMONIC_FIELD),
                               n_windows=16, prefix_windows=24)
    assert criteria_conclusion(results) == NONE


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
        ReducedSystem(constant_laplacian())).verdict == "holds"
    assert check_symmetric_part_bound(
        ReducedSystem(HARMONIC_FIELD)).verdict == "fails"
    # signed oscillation does not help: the top eigenvalue is nonnegative
    assert check_symmetric_part_bound(ReducedSystem(OSC_FIELD)).verdict == "fails"


def test_iterated_integral_verdicts():
    assert check_iterated_integral(ReducedSystem(constant_laplacian())).verdict == "holds"
    res = check_iterated_integral(ReducedSystem(HARMONIC_FIELD))
    assert res.verdict == "inconclusive"
    assert "inner_divergent" in res.flags
    res = check_iterated_integral(ReducedSystem(OSC_FIELD))
    assert res.verdict == "holds"
    assert res.implied_conclusion == SECOND_ORDER


@pytest.mark.parametrize("target", ["b", "c"])
def test_special_case_not_applicable(target):
    # R carries the b- and c-moments the applicability test reads
    res = check_decoupled_case(ReducedSystem(
        make_harmonic_family(target, profile_power(0.2, 0.0), 2)))
    assert len(res) == 1
    assert res[0].verdict == "inconclusive"
    assert "not_applicable" in res[0].flags
    assert res[0].witness["max_bc_moment"] == pytest.approx(0.1, abs=1e-12)


def test_special_case_detector():
    radial = check_decoupled_case(ReducedSystem(
        make_radial_family("b", profile_power(0.2, 0.5))))
    assert {r.id for r in radial} == {"special_a1_bounded", "special_a2_lower",
                                     "special_a1_converges", "special_a2_extended"}


def test_special_case_harmonic_family_fails_boundedness():
    got = by_id(check_decoupled_case(ReducedSystem(HARMONIC_FIELD)))
    assert got["special_a1_bounded"].verdict == "fails"
    assert got["special_a1_converges"].verdict == "fails"
    assert got["special_a2_lower"].verdict == "holds"     # a2 is identically 0
    assert all(r.implied_conclusion == NONE for r in got.values())


def test_special_case_oscillatory_family_holds():
    got = by_id(check_decoupled_case(ReducedSystem(OSC_FIELD)))
    assert got["special_a1_bounded"].verdict == "holds"
    assert got["special_a2_lower"].verdict == "holds"
    assert got["special_a1_converges"].verdict == "holds"
    assert got["special_a2_extended"].verdict == "holds"
    assert got["special_a1_bounded"].implied_conclusion == LIPSCHITZ
    assert got["special_a1_converges"].implied_conclusion == SECOND_ORDER


def test_special_case_sin_mode_declining_a2():
    field = make_harmonic_family("a", profile_log_inverse(0.4), 2,
                                 phase=-math.pi / 2)
    got = by_id(check_decoupled_case(ReducedSystem(field)))
    # a2 = -g/2 < 0 declines without bound
    assert got["special_a2_lower"].verdict == "fails"
    assert got["special_a2_extended"].verdict == "fails"


def test_conclusion_precedence():
    results = run_all_criteria(ReducedSystem(OSC_FIELD))
    assert criteria_conclusion(results) == SECOND_ORDER
    results = run_all_criteria(ReducedSystem(HARMONIC_FIELD))
    assert criteria_conclusion(results) == NONE
    results = run_all_criteria(ReducedSystem(DINI_FIELD))
    assert criteria_conclusion(results) == SECOND_ORDER


def test_run_all_criteria_on_a_table_evaluates_each_radius_once(monkeypatch):
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
        dynsys.DriftTable(ReducedSystem(make_radial_family("b", profile_power(0.2, 0.5)))),
        n_windows=16, prefix_windows=24)
    assert "special_a1_bounded" in by_id(results)
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("field", [
    *(family_from_descriptor(d) for d in builtin_families().values()),
    make_radial_family("b", profile_power(0.2, 0.5))], ids=lambda f: f.label)
def test_window_criteria_on_a_table_equal_the_exact_system(field):
    # the table holds the exact matrix at the window nodes, so every window
    # sum is the exact system's, bit for bit; the b- and c-moments of these
    # fields vanish, so the decoupled case sums its a-moment series too
    table = dynsys.DriftTable(ReducedSystem(field))
    got = by_id(run_all_criteria(table, n_windows=40, prefix_windows=60))
    want = by_id(run_all_criteria(ReducedSystem(field), n_windows=40,
                                  prefix_windows=60))
    assert got.keys() == want.keys()
    for key in got:
        if key != "iterated_L1":      # its trapezoid grid is interpolated
            assert got[key] == want[key]
    assert "special_a1_bounded" in got


def test_monotone_in_amplitude():
    # shrinking the perturbation never flips holds to fails
    for gamma in (0.05, 0.15, 0.3):
        field = make_harmonic_family("a", profile_power(gamma, 0.5), 2)
        assert check_dini_integrability(ReducedSystem(field)).verdict == "holds"
    for gamma in (0.1, 0.25, 0.4):
        field = make_harmonic_family("a", profile_log_oscillatory(gamma, 1.0), 2)
        assert check_iterated_integral(ReducedSystem(field)).verdict == "holds"


def test_criteria_probe_agreement_on_dini_family():
    # a holding Dini criterion must come with stable + constant probes
    sys = ReducedSystem(DINI_FIELD)
    assert uniform_stability_probe(sys, [0.0, 2.0, 5.0], 30.0).uniform_stability == STABLE
    assert asymptotic_constancy_probe(sys, 1.0, 30.0).asymptotic_constancy == CONSTANT


STACK_FIELDS = {**builtin_families(),
                **{f"trig_random-{seed}": {"family": "trig_random", "seed": seed}
                   for seed in range(8)}}


@pytest.mark.parametrize("desc", STACK_FIELDS.values(), ids=STACK_FIELDS.keys())
def test_stacked_linear_algebra_is_bitwise_the_per_matrix_loop(desc):
    # eigenvalue_bound's eigvalsh on the 120-window node grid and
    # iterated_L1's products on its 80-window trapezoid grid, stacked and
    # one matrix at a time, on the real stacks of R
    system = ReducedSystem(family_from_descriptor(desc))
    nodes = []
    tails.dyadic_window_sums(lambda ts: nodes.append(ts) or np.zeros_like(ts), 120)
    Rs = system.matrices(nodes[0])
    stacked = np.linalg.eigvalsh(-0.5 * (Rs + np.swapaxes(Rs, 1, 2)))[:, -1]
    assert np.array_equal(stacked, [np.linalg.eigvalsh(-0.5 * (R + R.T))[-1]
                                    for R in Rs])
    t_grid = np.linspace(0.0, 80 * tails.LN2, 80 * 16 + 1)
    R_grid = system.matrices(t_grid)
    dt = t_grid[1] - t_grid[0]
    prefix = np.concatenate([np.zeros((1, 4, 4)), np.cumsum(
        0.5 * dt * (R_grid[1:] + R_grid[:-1]), axis=0)])
    inner = prefix[-len(t_grid) // 4:].mean(axis=0)[None] - prefix
    assert np.array_equal(R_grid @ inner,
                          [R @ block for R, block in zip(R_grid, inner)])


@pytest.mark.parametrize("desc", builtin_families().values(),
                         ids=builtin_families().keys())
def test_stacked_spectral_norms_are_bitwise_the_per_matrix_loop(desc):
    # classify_stability's norms of the stability lanes, on both systems
    # (trig_random: test_trig_random_lanes_match_the_matrix_exponential)
    field = family_from_descriptor(desc)
    lanes = dynsys.stability_lanes([0.0, 5.0], 10.0)
    for system in (ReducedSystem(field),
                   dynsys.FullSystem(field).reduced_block_system()):
        results, _ = dynsys.propagate_lanes(system, lanes)
        for phis, _ in results:
            assert np.array_equal(np.linalg.norm(phis, 2, axis=(1, 2)),
                                  [np.linalg.norm(P, 2) for P in phis])
