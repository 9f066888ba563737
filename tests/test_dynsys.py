import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from regan.coeff import (CoefficientField, builtin_families, constant_laplacian,
                         family_from_descriptor, make_harmonic_family,
                         make_radial_family, make_trig_field,
                         profile_log_inverse, profile_log_oscillatory,
                         profile_power)
from regan import dynsys, tails
from regan.dynsys import (CONSTANT, DIVERGENT, J_BASIS, J_BASIS_INV, M_INF,
                          STABLE, UNSTABLE, ConstantFieldSystem, DriftTable,
                          FullSystem, MatrixSystem,
                          ReducedSystem, SingularSystemError, StepUnderflowError,
                          asymptotic_constancy_probe, classify_stability,
                          constancy_lanes, propagate_dense,
                          propagate_lanes, reduction_deviation,
                          second_harmonic_system, stability_lanes,
                          uniform_stability_probe)
from regan.moments import QuadratureSettings, block_tables, moment_vectors


def harmonic_decay(gamma):
    return lambda t: gamma / (1.0 + t)


def oscillatory_decay(gamma, eta):
    return lambda t: gamma * math.cos(eta * t) / (1.0 + t)


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------


def test_reduced_system_constant_field_is_zero():
    sys = ReducedSystem(constant_laplacian())
    assert np.max(np.abs(sys.matrix(3.0))) <= 1e-14


def test_reduced_system_radial_field_is_zero():
    sys = ReducedSystem(make_radial_family("a", profile_log_inverse(0.4)))
    for t in (0.5, 5.0, 20.0):
        assert np.max(np.abs(sys.matrix(t))) <= 1e-12


def test_reduced_system_matches_pattern():
    gamma = 0.4
    field = make_harmonic_family("a", profile_log_inverse(gamma), 2)
    sys = ReducedSystem(field)
    pattern = second_harmonic_system(harmonic_decay(gamma))
    for t in (0.0, 1.0, 7.5, 22.0):
        assert np.allclose(sys.matrix(t), pattern.matrix(t), atol=1e-12)


def _count_radius_evaluations(monkeypatch) -> list:
    """Patch the per-radius evaluators bound in dynsys; returns the radii seen."""
    seen = []

    def counting(fn, batched):
        def wrapper(field, radii, quad):
            seen.extend(radii if batched else [radii])
            return fn(field, radii, quad)
        return wrapper

    for name, batched in (("moment_vector", False), ("moment_vectors", True),
                          ("block_table", False), ("block_tables", True)):
        monkeypatch.setattr(dynsys, name, counting(getattr(dynsys, name), batched))
    return seen


@pytest.mark.parametrize("system_cls", [ReducedSystem, FullSystem])
def test_exact_matrices_are_one_batch_on_the_radii_of_ts(monkeypatch, system_cls):
    field = make_harmonic_family("a", profile_log_oscillatory(0.4, 1.0), 2)
    seen = _count_radius_evaluations(monkeypatch)
    sys = system_cls(field)
    grid = np.linspace(0.5, 40.0, 50)
    ts = np.concatenate([[-1.0, 0.0], grid, grid[:3]])
    stack = sys.matrices(ts)
    assert stack.shape == (len(ts), sys.dim, sys.dim)
    # one batch in the order of ts; t = -1 and t = 0 both read r = 1
    assert seen == [dynsys._radius(t) for t in ts] and seen[0] == seen[1] == 1.0
    assert sys.work == {"radii": len(ts), "cap_hits": 0}
    fresh = system_cls(field)
    assert all(np.array_equal(M, fresh.matrix(t)) for M, t in zip(stack, ts))


@pytest.mark.parametrize("field", [
    constant_laplacian(),
    make_harmonic_family("a", profile_log_oscillatory(0.4, 1.0), 2),
    make_trig_field(3), make_trig_field(6)], ids=lambda f: f.label)
def test_block_view_matrices_bitwise_equal_per_t(field):
    ts = np.concatenate([np.linspace(0.0, 30.0, 97), [-0.5, 12.0]])
    full = FullSystem(field)
    view = full.reduced_block_system()
    stack = view.matrices(ts)
    # every radius alone, as a batch of one
    pointwise = FullSystem(field)
    single = pointwise.reduced_block_system()
    assert stack.shape == (len(ts), 4, 4)
    assert np.array_equal(stack, np.array([single.matrix(t) for t in ts]))
    assert all(np.array_equal(view.matrix(t), single.matrix(t)) for t in ts)
    assert np.array_equal(full.matrices(ts),
                          np.array([pointwise.matrix(t) for t in ts]))
    for t in ts[::12]:
        for got, want in zip(full.eff_blocks(t), pointwise.eff_blocks(t)):
            assert np.array_equal(got, want)
    # the view evaluates through the 8x8 system and keeps no ledger of its own
    assert full.work["radii"] == 3 * len(ts) and not hasattr(view, "work")
    assert view.dim == 4


def test_singular_batch_names_its_first_singular_radius(monkeypatch):
    tables = dynsys.block_tables

    def with_zero_rows(field, radii, quad):
        # rows 2 and 4 of a batch of more than four radii
        bt, capped = tables(field, radii, quad)
        theta2_mean = bt.theta2_mean.copy()
        theta2_mean[2:5:2] = 0.0
        return dataclasses.replace(bt, theta2_mean=theta2_mean), capped

    monkeypatch.setattr(dynsys, "block_tables", with_zero_rows)
    sys = FullSystem(make_trig_field(3))
    ts = [0.5, 1.0, 2.0, 3.0, 4.0]
    with pytest.raises(SingularSystemError, match=rf"r={math.exp(-2.0):.6g}$"):
        sys.matrices(ts)
    assert sys.work["radii"] == 0               # a failed batch counts nothing
    assert np.isfinite(sys.matrix(2.0)).all()   # alone, as a batch of one


def test_reduced_system_counts_cap_hits():
    base = constant_laplacian()
    chirp = CoefficientField(lambda x, y: 1.0 + 0.2 * np.cos(40.0 * x), base.b,
                             base.c, base.modulus, ellipticity_lower=2.0)
    sys = ReducedSystem(chirp, QuadratureSettings(32, 64, 1e-13))
    sys.matrices([0.0, math.log(2.0), 10.0])
    sys.matrix(0.1)
    assert sys.work == {"radii": 4, "cap_hits": 3}
    _, capped = moment_vectors(chirp, [1.0, math.exp(-10.0)], sys.quad)
    assert capped.tolist() == [True, False]
    # the 8x8 system counts its cap hits too, its block view in its ledger
    full = FullSystem(chirp, QuadratureSettings(32, 64, 1e-13))
    full.matrices([0.0, math.log(2.0), 10.0])
    full.reduced_block_system().matrix(0.1)
    assert full.work == {"radii": 4, "cap_hits": 3}


# ---------------------------------------------------------------------------
# drift table
# ---------------------------------------------------------------------------

TABLE_FIELDS = [*(family_from_descriptor(d) for d in builtin_families().values()),
                *(make_trig_field(seed) for seed in range(8))]


@pytest.mark.parametrize("system_cls", [ReducedSystem, FullSystem])
@pytest.mark.parametrize("field", TABLE_FIELDS, ids=lambda f: f.label)
def test_table_reads_nodes_exactly_and_interpolates_to_rounding(field, system_cls):
    windows = 44
    table, exact = DriftTable(system_cls(field)), system_cls(field)
    # the node times of `tails.dyadic_window_sums`, in one call
    nodes = []
    tails.dyadic_window_sums(lambda ts: nodes.append(ts) or np.zeros(ts.size), windows)
    assert np.array_equal(table.matrices(nodes[0]), exact.matrices(nodes[0]))
    off = np.random.default_rng(7).uniform(0.0, windows * math.log(2.0), 300)
    got, want = table.matrices(off), exact.matrices(off)
    scale = np.maximum(1.0, np.max(np.abs(want), axis=(1, 2)))
    # measured at most 1.5e-15
    assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-14 * scale)
    assert table.work["windows"] == windows
    assert table.work["unresolved_windows"] == 0
    # matrix(t) is exact: held at a node, else the system's own
    assert np.array_equal(table.matrix(off[0]), exact.matrix(off[0]))
    assert np.array_equal(table.matrix(nodes[0][40]), exact.matrix(nodes[0][40]))


def test_unresolved_windows_are_read_by_the_exact_system():
    # a drift that oscillates 60 times per unit of t: no window resolves it
    base = constant_laplacian()
    fast = CoefficientField(
        lambda x, y: 1.0 + 0.2 * (x * x - y * y) / (x * x + y * y)
        * np.sin(30.0 * np.log(x * x + y * y)),
        base.b, base.c, base.modulus, ellipticity_lower=2.0, label="fast")
    table = DriftTable(ReducedSystem(fast))
    ts = np.linspace(-0.5, 3.0, 200)
    assert np.array_equal(table.matrices(ts), ReducedSystem(fast).matrices(ts))
    assert table.work["windows"] == table.work["unresolved_windows"] == 5
    # the chirp of the moment tests needs more nodes per circle, not per
    # window: its table is resolved
    chirp = CoefficientField(lambda x, y: 1.0 + 0.2 * np.cos(40.0 * x), base.b,
                             base.c, base.modulus, ellipticity_lower=2.0)
    table = DriftTable(ReducedSystem(chirp))
    table.matrices(ts)
    assert table.work["unresolved_windows"] == 0


def test_full_system_constant_field_matches_limit():
    sys = FullSystem(constant_laplacian())
    view = sys.reduced_block_system()
    for t in (0.0, 4.0, 18.0):
        assert np.allclose(sys.matrix(t), M_INF, atol=1e-13)
        assert np.max(np.abs(dynsys._conjugate(sys.matrix(t)))) <= 1e-13
        assert np.max(np.abs(view.matrix(t))) <= 1e-13


def test_constant_field_gives_one_drift_matrix_at_every_t():
    ts = np.linspace(-1.0, 40.0, 4001)
    stack = FullSystem(constant_laplacian()).matrices(ts)
    one = np.broadcast_to(stack[0], stack.shape)
    # the control system meets its radii in another order: its first radius
    # is another one; the drift table reads t <= 0 as r = 1, its nodes
    # exactly and every other t as M_0 - sum_j c_j (M_0 - M_j), which is M_0
    # with its sign bits where every node holds M_0
    control = ConstantFieldSystem(constant_laplacian())
    table = DriftTable(FullSystem(constant_laplacian()))
    for got in (stack, control.matrices(ts[::-1])[::-1], table.matrices(ts)):
        assert np.array_equal(got, one)
        assert np.array_equal(np.signbit(got), np.signbit(one))
    # rounding apart from M_INF: the matrix is FullSystem's, not the limit
    assert not np.array_equal(stack[0], M_INF)
    assert control.work == {"radii": len(ts), "cap_hits": 0}
    assert table.work["windows"] == math.ceil(40.0 / math.log(2.0))


def test_constant_field_system_evaluates_tables_at_one_radius(monkeypatch):
    seen = []
    tables = dynsys.block_tables
    monkeypatch.setattr(dynsys, "block_tables", lambda field, radii, quad: (
        seen.append(len(radii)) or tables(field, radii, quad)))
    control = ConstantFieldSystem(constant_laplacian())
    control.matrices(np.linspace(0.0, 30.0, 3000))
    control.matrices([0.125, 31.0])
    assert seen == [1]
    assert control.work["radii"] == 3002


def _assemble_four_solves(bt):
    """M and the effective blocks of `dynsys._assemble` with each correction
    solving A2 against its own right-hand side: four solves, two of them
    repeats."""
    A2 = bt.theta2_mean[:, None]

    def corr(left, right):  # block (k, l) is left[k] A2^-1 right[l]
        cols = np.linalg.solve(A2, right)
        out = np.empty((len(left), 4, 4))
        for k in range(2):
            for l in range(2):
                out[:, 2 * k:2 * k + 2, 2 * l:2 * l + 2] = left[:, k] @ cols[:, l]
        return out

    a_eff = bt.theta4 - corr(bt.theta3_mean, bt.theta3_mean)
    b_eff = bt.theta2_col - corr(bt.theta3_mean, bt.theta1_col)
    bt_eff = bt.theta2_row - corr(bt.theta1_row, bt.theta3_mean)
    c_eff = bt.plain - corr(bt.theta1_row, bt.theta1_col)
    a_eff_inv = np.linalg.inv(a_eff)
    bt_a_inv = bt_eff @ a_eff_inv
    m = dynsys._join(-a_eff_inv @ b_eff, a_eff_inv, c_eff - bt_a_inv @ b_eff,
                     bt_a_inv - 2.0 * dynsys._I4)
    return m, (a_eff, b_eff, bt_eff, c_eff)


@pytest.mark.parametrize("field", [
    *(family_from_descriptor(d) for d in builtin_families().values()),
    *(make_trig_field(seed) for seed in range(8))], ids=lambda f: f.label)
def test_assembly_solves_each_right_hand_side_once_with_the_same_bits(field):
    bt, _ = block_tables(field, np.exp(-np.linspace(0.0, 30.0, 64)))
    m, eff = dynsys._assemble(bt)
    want_m, want_eff = _assemble_four_solves(bt)
    assert np.array_equal(m, want_m)
    assert all(np.array_equal(got, want) for got, want in zip(eff, want_eff))


def test_basis_change_is_exact():
    assert np.array_equal(J_BASIS_INV,
                          np.block([[0.25 * np.eye(4), 0.5 * np.eye(4)],
                                    [0.25 * np.eye(4), -0.5 * np.eye(4)]]))
    assert np.array_equal(J_BASIS_INV @ J_BASIS, np.eye(8))
    diag = J_BASIS_INV @ M_INF @ J_BASIS
    assert np.array_equal(diag, np.diag([0.0] * 4 + [-2.0] * 4))


def test_remainder_orders_on_builtin_family():
    field = make_harmonic_family("a", profile_log_inverse(0.4), 2)
    sys = FullSystem(field)
    for t in (1.0, 5.0, 15.0, 30.0):
        eps = float(field.modulus(math.exp(-t)))
        assert np.max(np.abs(sys.s1(t))) <= 6.0 * eps
        assert np.max(np.abs(sys.s2(t))) <= 10.0 * eps**2
        assert np.allclose(M_INF + sys.s1(t) + sys.s2(t), sys.matrix(t),
                           atol=1e-14)


def test_reduction_gap_is_second_order():
    # measured |R1 - R| / eps^2 stays below 10 on the fixed-amplitude family
    field = make_harmonic_family("a", profile_power(0.2, 0.0), 2)
    table = reduction_deviation(FullSystem(field), ReducedSystem(field),
                                np.linspace(1.0, 30.0, 16))
    assert table["max_ratio"] <= 10.0


def test_reduction_gap_bounded_on_builtins():
    profiles = [profile_log_inverse(0.4), profile_log_oscillatory(0.4, 1.0),
                profile_power(0.3, 0.5)]
    for prof in profiles:
        field = make_harmonic_family("a", prof, 2)
        table = reduction_deviation(FullSystem(field), ReducedSystem(field),
                                    np.linspace(1.0, 30.0, 16))
        ratio = np.array(table["ratio"])
        assert np.isfinite(ratio).all()
        # no growth trend: the tail never exceeds the early peak meaningfully
        assert ratio[-1] <= 1.25 * np.max(ratio[:8]) + 1e-9


def test_reduction_deviation_flags_zero_eps():
    field = constant_laplacian()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = reduction_deviation(FullSystem(field), ReducedSystem(field),
                                    np.linspace(1.0, 30.0, 16))
    assert table["eps_zero"]
    assert table["ratio"] == [None] * 16
    assert table["max_ratio"] is None and table["tail_slope"] is None
    field = make_harmonic_family("a", profile_power(0.2, 0.0), 2)
    table = reduction_deviation(FullSystem(field), ReducedSystem(field),
                                np.linspace(1.0, 30.0, 16))
    assert not table["eps_zero"]
    assert np.isfinite(np.array(table["ratio"])).all()
    assert table["max_ratio"] == max(table["ratio"])


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def test_propagate_zero_system_is_identity():
    sys = ReducedSystem(constant_laplacian())
    (got,), _ = propagate_dense(sys, 0.0, [12.0], rtol=1e-10)
    assert np.allclose(got, np.eye(4), atol=1e-12)


def test_propagate_validates_rtol():
    sys = ReducedSystem(constant_laplacian())
    with pytest.raises(ValueError):
        propagate_dense(sys, 0.0, [1.0], rtol=1e-2)
    with pytest.raises(ValueError):
        propagate_dense(sys, 0.0, [1.0], rtol=1e-13)


def test_propagate_constant_diagonal_oracle():
    c = 0.7
    sys = MatrixSystem(4, lambda t: c * np.eye(4))
    (got,), _ = propagate_dense(sys, 1.0, [5.0], rtol=1e-10)
    assert np.allclose(got, math.exp(-c * 4.0) * np.eye(4), rtol=1e-9)


def _probes_stage_lanes(s_grid, t_max, thin):
    """The six lanes of the probes stage (`cli._stage_probes`): five
    stability lanes and the constancy lane from t = 1, each keeping every
    thin-th sample."""
    lanes = stability_lanes(s_grid, t_max) + constancy_lanes(1.0, t_max)
    return [(s, t_eval[::thin]) for s, t_eval in lanes]


@pytest.mark.parametrize("make_system, t_max", [
    (ReducedSystem, 6.0),
    (lambda field: FullSystem(field).reduced_block_system(), 6.0),
    (FullSystem, 1.2)], ids=["reduced", "block", "full"])
@pytest.mark.parametrize("field", [
    make_harmonic_family("a", profile_log_oscillatory(0.4, 1.0), 2),
    make_trig_field(3)], ids=["oscillatory_log", "trig_random-3"])
def test_stage_batches_leave_propagation_bitwise_unchanged(field, make_system, t_max):
    # the planned and prefetched lanes against a MatrixSystem, which
    # prefetches nothing and evaluates every stage alone through `matrix`,
    # at the same times
    batched = make_system(field)
    pointwise = MatrixSystem(batched.dim, make_system(field).matrix)
    lanes = _probes_stage_lanes(np.linspace(0.0, t_max / 3.0, 5), t_max, thin=5)
    got, work = propagate_lanes(batched, lanes, rtol=1e-10)
    want, want_work = propagate_lanes(pointwise, lanes, rtol=1e-10)
    for (phis, err), (want_phis, want_err) in zip(got, want):
        assert np.array_equal(phis, want_phis) and err == want_err
    assert work == want_work
    if isinstance(batched, ReducedSystem):
        assert batched.work["radii"] > 0


def test_lanes_through_a_table_evaluate_each_window_once(monkeypatch):
    field = make_harmonic_family("a", profile_log_oscillatory(0.4, 1.0), 2)
    seen = _count_radius_evaluations(monkeypatch)
    table = DriftTable(ReducedSystem(field))
    ts = np.linspace(0.0, 3.0, 76)
    _, work = propagate_lanes(table, [(0.0, ts), (1.0, ts[25:])])
    # windows 0-4 hold t <= 3: 32 nodes and the midpoint each, and r = 1
    # for the start of the lane from 0
    windows = math.ceil(3.0 / math.log(2.0))
    assert table.work == {"radii": 33 * windows + 1, "cap_hits": 0,
                          "windows": windows, "unresolved_windows": 0}
    assert len(seen) == len(set(seen)) == 33 * windows + 1
    assert work["accepted"] >= 75 and work["rounds"] > 10 * windows
    # a second propagation over the same windows evaluates nothing
    propagate_lanes(table, [(0.5, ts[20:])])
    assert len(seen) == 33 * windows + 1


def test_a_table_fills_the_windows_of_a_call_in_one_batch(monkeypatch):
    batches = []
    vectors, tables = dynsys.moment_vectors, dynsys.block_tables
    monkeypatch.setattr(dynsys, "moment_vectors",
                        lambda field, radii, quad: batches.append(len(radii))
                        or vectors(field, radii, quad))
    monkeypatch.setattr(dynsys, "block_tables",
                        lambda field, radii, quad: batches.append(len(radii))
                        or tables(field, radii, quad))
    table = DriftTable(ReducedSystem(make_radial_family("b", profile_power(0.2, 0.5))))
    ts = np.linspace(0.0, 30.0, 2148)
    table.matrices(ts)
    # windows 0-43 and r = 1, in one batch; the second read evaluates nothing
    assert batches == [33 * 44 + 1]
    table.matrices(ts[::-1])
    assert batches == [33 * 44 + 1]
    # the block view fills its 8x8 table: windows 0 and 1, no r = 1
    view = dynsys.ReducedBlockSystem(DriftTable(FullSystem(make_trig_field(1))))
    assert view.matrices([0.5, 1.0, 1.0]).shape == (3, 4, 4)
    assert batches[1:] == [66] and view.full.work["windows"] == 2


def _serial_propagation(system, s, t_eval, rtol):
    """The one-lane Dormand-Prince loop that `propagate_lanes` replaced, kept
    as the oracle of its lanes with step counters added: (Phi samples,
    error, accepted, rejected)."""
    atol = rtol * 1e-2
    ts = [float(v) for v in t_eval]
    d = system.dim
    if not ts:
        return np.zeros((0, d, d)), 0.0, 0, 0
    direction = 1.0 if ts[-1] >= s else -1.0
    Y = np.eye(d)
    t = s
    k1 = -system.matrix(t) @ Y
    span = max(abs(ts[-1] - s), 1e-6)
    h = min(0.05, span) * direction
    err_total = 0.0
    accepted = rejected = 0
    out = np.empty((len(ts), d, d))
    ks = [None] * 7
    for idx, target in enumerate(ts):
        while direction * (target - t) > 1e-14:
            h = direction * min(abs(h), abs(target - t))
            if abs(h) < 1e-14 * max(1.0, abs(t)):
                raise StepUnderflowError(f"step underflow at t={t:.6g}")
            ks[0] = k1
            Ks = system.matrices([t + dynsys._DP_C[i] * h for i in range(1, 7)])
            for i in range(1, 7):
                Yi = Y + h * sum(a * ks[j] for j, a in enumerate(dynsys._DP_A[i]))
                ks[i] = -Ks[i - 1] @ Yi
            Y_new = Y + h * sum(a * ks[j] for j, a in enumerate(dynsys._DP_A[6]))
            err_mat = h * sum(e * ks[j] for j, e in enumerate(dynsys._DP_ERR))
            scale = atol + rtol * np.maximum(np.abs(Y), np.abs(Y_new))
            err_norm = float(np.sqrt(np.mean((err_mat / scale) ** 2)))
            if err_norm <= 1.0:
                t = t + h
                Y = Y_new
                k1 = ks[6]
                err_total += float(np.max(np.abs(err_mat)))
                grow = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
                h *= min(5.0, max(0.2, grow))
                accepted += 1
            else:
                h *= max(0.2, 0.9 * err_norm ** -0.2)
                rejected += 1
        out[idx] = Y
    return out, err_total, accepted, rejected


def _mixed_lanes(span):
    """Forward, backward, empty, twice the same, and very short lanes over
    times up to `span`."""
    return [(0.0, np.linspace(0.0, span, 60)),
            (0.75 * span, np.linspace(0.75 * span, 0.1 * span, 30)),
            (0.3 * span, []),
            (0.2 * span, np.linspace(0.25 * span, 0.6 * span, 10)),
            (0.2 * span, np.linspace(0.25 * span, 0.6 * span, 10)),
            (0.9 * span, [0.95 * span])]


@pytest.mark.parametrize("make_system, span", [
    (lambda: second_harmonic_system(harmonic_decay(1.0)), 12.0),
    (lambda: ReducedSystem(make_harmonic_family(
        "a", profile_log_oscillatory(0.4, 1.0), 2)), 12.0),
    (lambda: FullSystem(make_trig_field(2)).reduced_block_system(), 12.0),
    (lambda: FullSystem(make_trig_field(2)), 2.0),
], ids=["second_harmonic", "oscillatory_log", "trig_random-2_block",
        "trig_random-2_8x8"])
def test_lanes_bitwise_equal_to_serial_propagation(make_system, span):
    lanes = _mixed_lanes(span)
    results, work = propagate_lanes(make_system(), lanes, 1e-10)
    oracle = [_serial_propagation(make_system(), s, ts, 1e-10) for s, ts in lanes]
    assert len(results) == len(lanes)
    for (phis, err), (want, want_err, _, _) in zip(results, oracle):
        assert phis.shape == want.shape
        assert np.array_equal(phis, want) and err == want_err
    assert work["accepted"] == sum(o[2] for o in oracle)
    assert work["rejected"] == sum(o[3] for o in oracle)
    assert work["est_error"] == max(o[1] for o in oracle)
    # one `matrices` call for the initial stages, one per round of the
    # longest lane
    assert work["rounds"] == 1 + max(o[2] + o[3] for o in oracle)
    assert np.array_equal(propagate_dense(make_system(), *lanes[1], 1e-10)[0],
                          oracle[1][0])


@pytest.mark.parametrize("field", [
    *(family_from_descriptor(d) for d in builtin_families().values()),
    *(make_trig_field(seed) for seed in range(8))], ids=lambda f: f.label)
def test_stage_combinations_equal_the_generator_sums(field):
    # `_combine` forms each stage input, Y_new and the error estimate with
    # one einsum; the serial oracle keeps the generator `sum` of each
    lanes = _probes_stage_lanes(np.linspace(0.0, 2.0, 5), 4.0, thin=4)
    results, _ = propagate_lanes(ReducedSystem(field), lanes, 1e-10)
    for (s, ts), (phis, err) in zip(lanes, results):
        want, want_err, _, _ = _serial_propagation(ReducedSystem(field), s, ts, 1e-10)
        assert np.array_equal(phis, want) and err == want_err


def test_lanes_of_nothing_do_no_work():
    sys = MatrixSystem(4, lambda t: pytest.fail("matrix was read"))
    results, work = propagate_lanes(sys, [(0.0, []), (2.0, [])])
    assert [phis.shape for phis, _ in results] == [(0, 4, 4)] * 2
    assert work == {"rounds": 0, "accepted": 0, "rejected": 0, "est_error": 0.0}


def test_underflowing_lane_raises_naming_its_t():
    # the drift is NaN past t = 2, so every step across it is rejected and
    # the lane that must cross it shrinks its step until it underflows there
    sys = MatrixSystem(4, lambda t: np.full((4, 4), np.nan) if t > 2.0
                       else 0.1 * np.eye(4))
    with pytest.raises(StepUnderflowError, match=r"step underflow at t=2 "):
        propagate_lanes(sys, [(0.0, [1.0]), (0.0, [1.5, 3.0]), (0.5, [1.9])])
    with pytest.raises(StepUnderflowError, match=r"step underflow at t=2 "):
        propagate_dense(sys, 0.0, [3.0])
    results, _ = propagate_lanes(sys, [(0.0, [1.0]), (0.5, [1.9])])
    assert np.allclose(results[0][0][0], math.exp(-0.1) * np.eye(4), rtol=1e-9)


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
    sys = ReducedSystem(field)
    s, t = 1.0, 25.0
    (phi,), _ = propagate_dense(sys, s, [t], rtol=1e-11)
    assert phi[0, 0] == pytest.approx(((1.0 + t) / (1.0 + s)) ** (gamma / 2.0), rel=1e-8)


def test_oscillatory_exponent_matches_quadrature_oracle():
    gamma, eta = 1.0, 1.0
    sys = second_harmonic_system(oscillatory_decay(gamma, eta))
    s, t = 0.0, 17.0
    integral, _ = quad(lambda tau: gamma * math.cos(eta * tau) / (1.0 + tau), s, t,
                       limit=200)
    (phi,), _ = propagate_dense(sys, s, [t], rtol=1e-11)
    assert phi[0, 0] == pytest.approx(math.exp(0.5 * integral), rel=1e-8)


def test_semigroup_property():
    field = make_trig_field(seed=4, amplitude=0.15)
    sys = ReducedSystem(field)
    rtol = 1e-9
    s, u, t = 0.5, 4.0, 9.0
    (full,), _ = propagate_dense(sys, s, [t], rtol)
    (late,), _ = propagate_dense(sys, u, [t], rtol)
    (early,), _ = propagate_dense(sys, s, [u], rtol)
    composed = late @ early
    assert np.max(np.abs(full - composed)) <= 10.0 * rtol * np.max(np.abs(full))


def test_time_reversal():
    field = make_trig_field(seed=9, amplitude=0.15)
    sys = ReducedSystem(field)
    rtol = 1e-9
    (fwd,), _ = propagate_dense(sys, 1.0, [6.0], rtol)
    (bwd,), _ = propagate_dense(sys, 6.0, [1.0], rtol)
    assert np.max(np.abs(fwd @ bwd - np.eye(4))) <= 10.0 * rtol


@pytest.mark.parametrize("seed", range(8))
def test_trig_random_lanes_match_the_matrix_exponential(seed):
    # trig_random is constant in r, so R(t) and the block view are constant
    # for t >= 0 (to about 1e-17) and Phi(t, s) = expm(-K (t - s)); the
    # lanes read 1e-15 relative to it at t <= 10
    field = make_trig_field(seed)
    lanes = stability_lanes([0.0, 2.0, 5.0], 10.0)
    for system in (ReducedSystem(field), FullSystem(field).reduced_block_system()):
        results, _ = propagate_lanes(system, lanes, rtol=1e-10)
        K = system.matrix(5.0)
        exact = [(np.array([expm(-K * (t - s)) for t in ts]), 0.0) for s, ts in lanes]
        for (phis, _), (want, _) in zip(results, exact):
            gap = np.max(np.abs(phis - want), axis=(1, 2))
            assert np.all(gap <= 1e-12 * np.max(np.abs(want), axis=(1, 2)))
            # the stacked spectral norm of `classify_stability` is the
            # per-matrix one, bit for bit
            assert np.array_equal(np.linalg.norm(phis, 2, axis=(1, 2)),
                                  [np.linalg.norm(P, 2) for P in phis])
        got = classify_stability(lanes, results, 10.0)
        want = classify_stability(lanes, exact, 10.0)
        assert got.uniform_stability == want.uniform_stability
        assert got.kappa_max == pytest.approx(want.kappa_max, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 5])
def test_trig_random_8x8_lanes_match_the_matrix_exponential(seed):
    # the raw 8x8 system of a field constant in r: M(t) = M(0) for t >= 0 and
    # Phi(t, s) = expm(-M(0) (t - s)), whose exp(+2t) branch grows to about
    # e^20 by t - s = 10, so the error is relative to max|expm| of the lane
    # (measured 2.5e-10)
    system = FullSystem(make_trig_field(seed))
    lanes = stability_lanes([0.0, 2.0, 5.0], 10.0)
    results, _ = propagate_lanes(system, lanes, rtol=1e-10)
    M = system.matrix(0.0)
    for (s, ts), (phis, _) in zip(lanes, results):
        want = np.array([expm(-M * (t - s)) for t in ts])
        assert np.max(np.abs(phis - want)) <= 1e-9 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

S_GRID = [0.0, 2.0, 5.0, 10.0, 20.0]


def test_probe_zero_system_stable_constant():
    sys = ReducedSystem(constant_laplacian())
    stab = uniform_stability_probe(sys, S_GRID, 30.0)
    assert stab.uniform_stability == STABLE
    assert stab.kappa_max == pytest.approx(1.0, abs=1e-10)
    const = asymptotic_constancy_probe(sys, 1.0, 30.0)
    assert const.asymptotic_constancy == CONSTANT
    assert const.deviation_half <= 1e-10


def test_probe_verdicts_acceptance_families():
    radial = ReducedSystem(make_radial_family("a", profile_log_inverse(0.4)))
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
    sys = ReducedSystem(unstable_field)
    assert uniform_stability_probe(sys, S_GRID, 30.0).uniform_stability == UNSTABLE

    stable_field = make_harmonic_family("a", profile_log_oscillatory(0.4, 1.0), 2)
    sys = ReducedSystem(stable_field)
    assert uniform_stability_probe(sys, S_GRID, 30.0).uniform_stability == STABLE
    assert (asymptotic_constancy_probe(sys, 1.0, 30.0).asymptotic_constancy
            == CONSTANT)


def test_probe_full_system_reduced_block():
    # the raw 8x8 system has a genuine exp(+2t) branch; stability semantics
    # live on the conjugated neutral block
    sys = FullSystem(constant_laplacian()).reduced_block_system()
    stab = uniform_stability_probe(sys, [0.0, 2.0], 12.0)
    assert stab.uniform_stability == STABLE
    const = asymptotic_constancy_probe(sys, 0.5, 12.0)
    assert const.asymptotic_constancy == CONSTANT


def test_full_system_propagation_matches_matrix_exponential():
    sys = FullSystem(constant_laplacian())
    span = 1.5
    (got,), _ = propagate_dense(sys, 0.0, [span], rtol=1e-11)
    assert np.allclose(got, expm(-M_INF * span), atol=1e-9)
