import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from regan import pdelab
from regan.coeff import (CoefficientField, ModulusOfContinuity, builtin_families,
                         constant_laplacian, family_from_descriptor,
                         make_harmonic_family, make_trig_field,
                         profile_log_inverse, profile_log_oscillatory,
                         profile_power)
from regan.dynsys import ConstantFieldSystem, FullSystem
from regan.pdelab import (BOUNDARY_LIBRARY, EllipticityError, bilinear_sample,
                          compare_with_dynamics, decompose, profile_radii,
                          gradient_field, hessian_quotients,
                          regularity_diagnostics, solve_dirichlet,
                          write_profile_csv, write_solution_csv)

from oracles import stencil_matrix

L = 0.6875
H5, H6 = 2.0**-5, 2.0**-6


def grid_vector_field(fn, h, half_width=L):
    n = int(round(2 * half_width / h))
    xs = -half_width + h * np.arange(n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    fx, fy = fn(gx, gy)
    return np.stack([fx, fy])


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_quadratic_data_is_exact():
    sol = solve_dirichlet(constant_laplacian(), H5, "quadratic_saddle")
    xs = sol.axis()
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    assert np.max(np.abs(sol.u - (gx**2 - gy**2))) <= 1e-10
    assert sol.residual_norm <= 1e-10


def test_cross_quadratic_is_exact():
    sol = solve_dirichlet(constant_laplacian(), H5, "quadratic_cross")
    xs = sol.axis()
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    assert np.max(np.abs(sol.u - gx * gy)) <= 1e-10
    U = gradient_field(sol)
    assert np.max(np.abs(U[0] - gy)) <= 1e-9
    assert np.max(np.abs(U[1] - gx)) <= 1e-9


def test_harmonic_cubic_solution_and_gradient_convergence():
    # the stencil solves cubics exactly; the gradient carries the h^2 error
    errs = {}
    for h in (H5, H6):
        sol = solve_dirichlet(constant_laplacian(), h, "harmonic_cubic")
        xs = sol.axis()
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        assert np.max(np.abs(sol.u - (gx**3 - 3 * gx * gy**2))) <= 1e-10
        U = gradient_field(sol)
        exact = np.stack([3 * gx**2 - 3 * gy**2, -6 * gx * gy])
        errs[h] = float(np.max(np.abs(U - exact)))
    ratio = errs[H5] / errs[H6]
    assert 3.4 <= ratio <= 4.6


def test_maximum_principle_constant_coefficients():
    sol = solve_dirichlet(constant_laplacian(), H5, "harmonic_cubic")
    interior = sol.u[1:-1, 1:-1]
    boundary = np.concatenate([sol.u[0], sol.u[-1], sol.u[:, 0], sol.u[:, -1]])
    assert interior.max() <= boundary.max() + 1e-12
    assert interior.min() >= boundary.min() - 1e-12


def test_perturbed_field_solve_converges():
    field = make_harmonic_family("a", profile_log_inverse(0.4), 2)
    sol = solve_dirichlet(field, H5, "v_rich_mix")
    assert sol.residual_norm <= 1e-10


def test_mesh_must_divide_evenly():
    with pytest.raises(ValueError, match="divide"):
        solve_dirichlet(constant_laplacian(), 0.3, "quadratic_saddle")


def test_ellipticity_violation_names_node():
    field = CoefficientField(
        lambda x, y: (np.ones_like(x), np.full_like(x, 2.1), np.ones_like(x)),
        ModulusOfContinuity(lambda r: 3.0 * np.ones_like(r)), ellipticity_lower=0.1)
    with pytest.raises(EllipticityError, match="node"):
        solve_dirichlet(field, H5, "quadratic_saddle")


# ---------------------------------------------------------------------------
# the sine-transform Laplacian solve and the GMRES it preconditions
# ---------------------------------------------------------------------------


def assembled(field, h, boundary):
    """The oracle's sparse matrix and right-hand side of the stencil."""
    return stencil_matrix(field, h, BOUNDARY_LIBRARY[boundary], L)


@pytest.mark.parametrize("k", [5, 6, 7])
@pytest.mark.parametrize("boundary", sorted(BOUNDARY_LIBRARY))
def test_laplacian_solve_matches_spsolve(boundary, k):
    A, rhs = assembled(constant_laplacian(), 2.0**-k, boundary)
    got = pdelab._laplacian_solve(rhs)
    assert np.max(np.abs(got - spla.spsolve(A, rhs))) <= 1e-12


def test_laplacian_solve_reproduces_the_cubic():
    # the 5-point stencil is exact on cubics, so only rounding remains
    sol = solve_dirichlet(constant_laplacian(), 2.0**-7, "harmonic_cubic")
    x, y = np.meshgrid(sol.axis(), sol.axis(), indexing="ij")
    assert np.max(np.abs(sol.u - (x**3 - 3.0 * x * y**2))) <= 1e-14


@pytest.mark.parametrize("k", [5, 6, 8])
def test_control_solve_converges_in_one_iteration(k):
    # the preconditioner is the exact inverse of the control's stencil
    sol = solve_dirichlet(constant_laplacian(), 2.0**-k, "v_rich_mix")
    assert len(sol.residual_history) == 1
    assert sol.residual_norm <= 1e-14


# the largest perturbation of the Laplacian a config can reach: |g| = 1/2
# at every radius, in each coefficient, at the lowest and highest mode, and
# the trig_random fields of the highest degree and amplitude
WORST_FIELDS = ([make_harmonic_family(t, profile_power(0.5, 0.0), n)
                 for t in "abc" for n in (2, 59)]
                + [make_trig_field(s, degree=59, amplitude=0.5) for s in range(8)])


@pytest.mark.parametrize("field", WORST_FIELDS, ids=lambda f: f.label)
def test_worst_fields_converge_under_the_cap_and_match_spsolve(field):
    sol = solve_dirichlet(field, H6, "v_rich_mix")
    assert 1 < len(sol.residual_history) < pdelab.GMRES_MAX_ITER
    assert sol.residual_norm <= pdelab.SOLVER_TOL
    A, rhs = assembled(field, H6, "v_rich_mix")
    assert np.max(np.abs(sol.u[1:-1, 1:-1].ravel() - spla.spsolve(A, rhs))) <= 1e-12


def test_iteration_count_does_not_grow_with_the_mesh():
    field = WORST_FIELDS[0]
    coarse, fine = (len(solve_dirichlet(field, h, "v_rich_mix").residual_history)
                    for h in (H6, 2.0**-8))
    assert fine <= coarse + 3


# a = 1.25 at the single interior node (0.25, 0.25), the Laplacian elsewhere
BUMP_FIELD = CoefficientField(
    lambda x, y: (np.where((np.abs(x - 0.25) < 1e-9) & (np.abs(y - 0.25) < 1e-9),
                           1.25, 1.0), np.zeros_like(x), np.ones_like(x)),
    ModulusOfContinuity(lambda r: np.ones_like(r)), ellipticity_lower=0.5)


def test_one_perturbed_node_is_solved_by_gmres():
    # the preconditioner alone no longer inverts the stencil, GMRES does in
    # a few iterations
    sol = solve_dirichlet(BUMP_FIELD, H5, "v_rich_mix")
    assert 1 < len(sol.residual_history) < pdelab.GMRES_MAX_ITER
    A, rhs = assembled(BUMP_FIELD, H5, "v_rich_mix")
    assert np.max(np.abs(sol.u[1:-1, 1:-1].ravel() - spla.spsolve(A, rhs))) <= 1e-12


ORACLE_FIELDS = ([family_from_descriptor(d) for _, d in sorted(builtin_families().items())]
                 + [family_from_descriptor({"family": "trig_random", "seed": s})
                    for s in range(8)]
                 + [BUMP_FIELD])


def gmres_system(monkeypatch, field, h, boundary):
    """The matvec, preconditioner and right-hand side that `solve_dirichlet`
    hands `_gmres`."""
    seen, gmres = [], pdelab._gmres
    with monkeypatch.context() as m:
        m.setattr(pdelab, "_gmres", lambda *args: seen.append(args) or gmres(*args))
        solve_dirichlet(field, h, boundary)
    return seen[0]


@pytest.mark.parametrize("k", [5, 6])
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.label)
def test_slice_operator_matches_the_sparse_oracle(monkeypatch, field, k):
    h = 2.0**-k
    N = pdelab.cell_count(h)
    apply = pdelab._assemble(field, h, -L + h * np.arange(N + 1))
    # x^2, xy and y^2 in grid units, whose stencils read 2a, b and 2c at a
    # node: the origin node carries (a, b, c) = (1, 0, 1)
    j, one = np.arange(N + 1) - N // 2, np.ones(N + 1)
    assert [apply(np.multiply.outer(p, q))[N // 2 - 1, N // 2 - 1]
            for p, q in ((j * j, one), (j, j), (one, j * j))] == [2, 0, 2]
    for boundary in sorted(BOUNDARY_LIBRARY):
        matvec, _, rhs = gmres_system(monkeypatch, field, h, boundary)
        A_ref, rhs_ref = assembled(field, h, boundary)
        assert np.max(np.abs(rhs - rhs_ref)) <= 1e-14 * np.max(np.abs(rhs_ref))
    for v in np.random.default_rng(k).standard_normal((3, (N - 1) ** 2)):
        want = A_ref @ v
        assert np.max(np.abs(matvec(v) - want)) <= 1e-14 * np.max(np.abs(want))


def scipy_gmres(matvec, psolve, b):
    """scipy's GMRES with the settings `_gmres` reproduces: x and the
    history of the preconditioned relative residuals."""
    shape, history = (b.size, b.size), []
    x, _ = spla.gmres(
        spla.LinearOperator(shape, matvec=matvec, dtype=float), b,
        rtol=pdelab.GMRES_RTOL, atol=0.0, restart=pdelab.GMRES_MAX_ITER, maxiter=1,
        M=spla.LinearOperator(shape, matvec=psolve, dtype=float),
        callback=history.append, callback_type="pr_norm")
    return x, history


def assert_same_bits(got, want):
    (x, history), (x_ref, history_ref) = got, want
    assert np.array_equal(x, x_ref)
    assert history == history_ref


@pytest.mark.parametrize("boundary", ["harmonic_quartic", "v_rich_mix"])
@pytest.mark.parametrize("k", [5, 6])
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.label)
def test_gmres_is_scipys_bit_for_bit(monkeypatch, field, k, boundary):
    system = gmres_system(monkeypatch, field, 2.0**-k, boundary)
    assert_same_bits(pdelab._gmres(*system), scipy_gmres(*system))


def test_gmres_matches_scipy_through_a_stall_to_the_cap(monkeypatch):
    matvec, _, rhs = gmres_system(monkeypatch, constant_laplacian(), H5, "v_rich_mix")
    jacobi = lambda f: -0.25 * f
    got = pdelab._gmres(matvec, jacobi, rhs)
    assert len(got[1]) == pdelab.GMRES_MAX_ITER
    assert_same_bits(got, scipy_gmres(matvec, jacobi, rhs))


def test_gmres_matches_scipy_on_a_zero_right_hand_side(monkeypatch):
    matvec, psolve, rhs = gmres_system(monkeypatch, WORST_FIELDS[0], H5, "v_rich_mix")
    zero = np.zeros_like(rhs)
    assert_same_bits(pdelab._gmres(matvec, psolve, zero), scipy_gmres(matvec, psolve, zero))


@pytest.mark.parametrize("field", [constant_laplacian(), WORST_FIELDS[0], BUMP_FIELD],
                         ids=lambda f: f.label)
def test_a_solve_applies_each_operator_once_per_iteration(monkeypatch, field):
    # besides one preconditioner and one stencil application per iteration,
    # M rhs, the right-hand side and the residual check: the control, in one
    # iteration, makes 2 and 3 applications
    calls = {"preconditioner": 0, "stencil": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    assemble = pdelab._assemble

    monkeypatch.setattr(pdelab, "_assemble",
                        lambda *args: counted("stencil", assemble(*args)))
    monkeypatch.setattr(pdelab, "_laplacian_solve",
                        counted("preconditioner", pdelab._laplacian_solve))
    iterations = len(solve_dirichlet(field, H5, "v_rich_mix").residual_history)
    assert calls == {"preconditioner": iterations + 1, "stencil": iterations + 2}


def test_stalled_preconditioner_raises_with_its_history(monkeypatch):
    # a Jacobi scaling in place of the Laplacian inverse: wrong but nonzero,
    # so GMRES runs to the cap without reaching SOLVER_TOL
    monkeypatch.setattr(pdelab, "_laplacian_solve", lambda f: -0.25 * f)
    with pytest.raises(pdelab.SolveError, match="stalled") as info:
        solve_dirichlet(constant_laplacian(), H5, "v_rich_mix")
    history = info.value.history
    assert len(history) == pdelab.GMRES_MAX_ITER
    assert history[-1] > pdelab.GMRES_RTOL


def test_zero_boundary_data_gives_zero_without_iterating():
    sol = solve_dirichlet(WORST_FIELDS[0], H5, lambda x, y: 0.0 * x)
    assert not np.any(sol.u)
    assert sol.residual_history == []
    assert sol.residual_norm == 0.0


def long_double_refined(field, h, boundary):
    """The oracle's equations solved by SuperLU and refined once, the
    residual taken in long double; the interior nodes as an (N - 1)^2 grid."""
    A, rhs = assembled(field, h, boundary)
    lu = spla.splu(A.tocsc())
    u = lu.solve(rhs)
    ld = np.longdouble
    Au = np.add.reduceat(A.data.astype(ld) * u.astype(ld)[A.indices], A.indptr[:-1])
    refined = u.astype(ld) + lu.solve((rhs.astype(ld) - Au).astype(float))
    n = pdelab.cell_count(h) - 1
    return refined.reshape(n, n)


@pytest.mark.xfail(strict=True, reason=(
    "GMRES carries the sine transform's rounding, eps * max|u| per node, and the "
    "step-2h quotient divides it by (2h)^2: measured 2.0e-12 from the refined "
    "reference; a long-double refinement of the solve is to bring it below 1e-13"))
def test_hessian_quotient_matches_a_long_double_refined_solve():
    field = family_from_descriptor(builtin_families()["oscillatory_log"])
    h = 2.0**-7
    U = long_double_refined(field, h, "v_rich_mix")
    i, s = U.shape[0] // 2, 2.0 * h
    want = ((U[i + 2, i] - 2.0 * U[i, i] + U[i - 2, i]) / s**2,
            (U[i + 2, i + 2] - U[i + 2, i - 2] - U[i - 2, i + 2]
             + U[i - 2, i - 2]) / (4.0 * s**2),
            (U[i, i + 2] - 2.0 * U[i, i] + U[i, i - 2]) / s**2)
    _, *got = hessian_quotients(solve_dirichlet(field, h, "v_rich_mix"), [2])["rows"][0]
    assert max(abs(float(g - w)) for g, w in zip(got, want)) <= 1e-13


def test_hessian_quotients_quadratic():
    sol = solve_dirichlet(constant_laplacian(), H5, "quadratic_saddle")
    table = hessian_quotients(sol, [2, 4, 8])
    for _, qxx, qxy, qyy in table["rows"]:
        assert (qxx, qxy, qyy) == pytest.approx((2.0, 0.0, -2.0), abs=1e-9)
    assert max(table["cauchy_differences"]) <= 1e-9


def test_hessian_quotients_cubic_vanish():
    sol = solve_dirichlet(constant_laplacian(), H5, "harmonic_cubic")
    table = hessian_quotients(sol, [2, 4, 8])
    for _, qxx, qxy, qyy in table["rows"]:
        assert max(abs(qxx), abs(qxy), abs(qyy)) <= 1e-8


def test_hessian_steps_validated():
    sol = solve_dirichlet(constant_laplacian(), H5, "quadratic_saddle")
    with pytest.raises(ValueError):
        hessian_quotients(sol, [1])


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_bilinear_sample_linear_exact():
    vals = grid_vector_field(lambda x, y: (x, y), H5)[0]
    x = np.array([0.111, -0.27, 0.333])
    y = np.array([0.05, 0.2, -0.31])
    assert np.allclose(bilinear_sample(vals, H5, x, y), x, atol=1e-14)


def radii_for(h):
    return profile_radii(h)


def test_decompose_pure_first_moment_field():
    U = grid_vector_field(lambda x, y: (2 * x, -2 * y), H6)
    prof = decompose(U, H6, radii_for(H6))
    assert np.max(np.abs(prof.U0)) <= 1e-12
    assert np.allclose(prof.V, np.tile([2.0, 0.0, 0.0, -2.0], (len(prof.radii), 1)),
                       atol=1e-11)
    assert np.max(np.abs(prof.rVprime)) <= 1e-9
    assert np.max(prof.M1p_W) <= 1e-11


def test_decompose_constant_field():
    U = grid_vector_field(lambda x, y: (0.7 * np.ones_like(x), -0.3 * np.ones_like(x)), H6)
    prof = decompose(U, H6, radii_for(H6))
    assert np.allclose(prof.U0, np.tile([0.7, -0.3], (len(prof.radii), 1)), atol=1e-13)
    assert np.max(np.abs(prof.V)) <= 1e-12


def test_decompose_pure_second_harmonic():
    U = grid_vector_field(lambda x, y: (x**2 - y**2, -2 * x * y), H6)
    prof = decompose(U, H6, radii_for(H6))
    assert np.max(np.abs(prof.U0)) <= 1e-10
    assert np.max(np.abs(prof.V)) <= 1e-9
    # remainder scales like r^2, so M1p / r is proportional to r
    ratio = prof.M1p_W / prof.radii**2
    assert np.max(ratio) / np.min(ratio) <= 1.1


def test_decompose_orthogonality_on_solve():
    field = make_harmonic_family("a", profile_log_inverse(0.4), 2)
    sol = solve_dirichlet(field, H6, "v_rich_mix")
    prof = decompose(gradient_field(sol), H6, radii_for(H6))
    assert np.max(prof.projection_residual) <= 1e-10


def test_decompose_radius_band_enforced():
    U = grid_vector_field(lambda x, y: (x, y), H6)
    with pytest.raises(ValueError, match="band"):
        decompose(U, H6, [2.0 * H6])
    with pytest.raises(ValueError, match="band"):
        decompose(U, H6, [0.9 * L])


def test_rotational_covariance():
    data = lambda x, y: x**2 - y**2 + x * y
    rotated = lambda x, y: y**2 - x**2 - x * y   # data(R^-1 (x,y)), R = quarter turn
    base = solve_dirichlet(constant_laplacian(), H6, data)
    rot = solve_dirichlet(constant_laplacian(), H6, rotated)
    radii = radii_for(H6)
    prof = decompose(gradient_field(base), H6, radii)
    prof_rot = decompose(gradient_field(rot), H6, radii)
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    for k in range(len(radii)):
        assert np.allclose(prof_rot.U0[k], R @ prof.U0[k], atol=1e-9)
        M = np.array([[prof.V[k, 0], prof.V[k, 2]], [prof.V[k, 1], prof.V[k, 3]]])
        M_rot = np.array([[prof_rot.V[k, 0], prof_rot.V[k, 2]],
                          [prof_rot.V[k, 1], prof_rot.V[k, 3]]])
        assert np.allclose(M_rot, R @ M @ R.T, atol=1e-9)


# ---------------------------------------------------------------------------
# diagnostics and the dynamics comparison
# ---------------------------------------------------------------------------


def control_profile(h=H6, boundary="v_rich_mix"):
    sol = solve_dirichlet(constant_laplacian(), h, boundary)
    return decompose(gradient_field(sol), h, radii_for(h))


def test_regularity_diagnostics_control():
    prof = control_profile()
    verdicts = regularity_diagnostics(prof, constant_laplacian().modulus)
    assert verdicts["lipschitz"] == "bounded"
    assert verdicts["differentiability"] in ("vanishing", "inconclusive")
    # rV' sits at the discretization floor for the control run
    assert np.max(np.linalg.norm(prof.rVprime, axis=1)) <= 5e-3


def test_regularity_diagnostics_needs_depth():
    prof = control_profile()
    import dataclasses

    small = dataclasses.replace(
        prof, radii=prof.radii[:4], U0=prof.U0[:4], V=prof.V[:4],
        rVprime=prof.rVprime[:4], Mp_gradW=prof.Mp_gradW[:4],
        M1p_W=prof.M1p_W[:4], projection_residual=prof.projection_residual[:4])
    with pytest.raises(ValueError, match="8"):
        regularity_diagnostics(small, constant_laplacian().modulus)


def _floor_dict_verdicts(prof, control, modulus):
    """Reference: the verdicts of a floor dict built from the control profile
    with the guard max(omega r, 1e-300), read against the field's indicators
    as four separate trend calls."""
    rvp_c = np.linalg.norm(control.rVprime, axis=1)
    scale = np.maximum(np.asarray(modulus(control.radii), dtype=float)
                       * control.radii, 1e-300)
    floor = {"lip": rvp_c, "rvp": rvp_c, "w_ratio": control.M1p_W / scale,
             "u0_ratio": np.linalg.norm(control.U0 - control.U0[0], axis=1) / scale}
    rvp = np.linalg.norm(prof.rVprime, axis=1)
    omega_r = np.asarray(modulus(prof.radii), dtype=float) * prof.radii
    safe = np.where(omega_r > 1e-300, omega_r, np.inf)
    values = {"lip": np.linalg.norm(prof.V, axis=1) + rvp, "rvp": rvp,
              "w_ratio": prof.M1p_W / safe,
              "u0_ratio": np.linalg.norm(prof.U0 - prof.U0[0], axis=1) / safe}
    sel = slice(3, None, -1)
    trend = lambda key, *words: pdelab._trend_verdict(
        values[key][sel], floor[key][sel], *words)
    return {"lipschitz": trend("lip"),
            "differentiability": trend("rvp", "persistent", "vanishing"),
            "w_growth": trend("w_ratio"), "u0_growth": trend("u0_ratio")}


@pytest.mark.parametrize("name", sorted(builtin_families()))
def test_regularity_diagnostics_reads_the_control_floor(name):
    # `constant` has omega r = 0 at every radius, where the two guards differ
    field = family_from_descriptor(builtin_families()[name])
    prof = decompose(gradient_field(solve_dirichlet(field, H6, "v_rich_mix")),
                     H6, radii_for(H6))
    control = control_profile()
    got = regularity_diagnostics(prof, field.modulus, control)
    assert got == _floor_dict_verdicts(prof, control, field.modulus)
    with pytest.raises(ValueError, match="radii"):
        regularity_diagnostics(prof, field.modulus, decompose(
            gradient_field(solve_dirichlet(constant_laplacian(), H6, "v_rich_mix")),
            H6, radii_for(H6)[1:]))


def test_regularity_diagnostics_control_floor_absorbs_a_small_trend():
    # |r V'| doubling toward r = 0 below three times the control's |r V'|
    # is resolution with the control and a persistent trend without it
    control = control_profile()
    rising = np.zeros_like(control.rVprime)
    rising[:4, 0] = [8e-4, 4e-4, 2e-4, 1e-4]
    prof = dataclasses.replace(control, rVprime=rising)
    control = dataclasses.replace(control, rVprime=np.full_like(rising, 5e-4))
    modulus = constant_laplacian().modulus
    assert regularity_diagnostics(prof, modulus)["differentiability"] == "persistent"
    got = regularity_diagnostics(prof, modulus, control)
    assert got["differentiability"] == "vanishing"
    assert got == _floor_dict_verdicts(prof, control, modulus)


def test_compare_with_dynamics_control_floor():
    prof = control_profile()
    table = compare_with_dynamics(prof, FullSystem(constant_laplacian()))
    assert max(table["relative_deviation"]) <= 2e-2
    assert table["relative_deviation"][-1] <= 1e-3  # largest radius: near-exact


@pytest.mark.parametrize("h", [H6, 2.0**-7])
def test_control_system_compares_as_the_plain_full_system(h):
    prof = control_profile(h)
    want = compare_with_dynamics(prof, FullSystem(constant_laplacian()))
    got = compare_with_dynamics(prof, ConstantFieldSystem(constant_laplacian()))
    assert got == want


def test_compare_with_dynamics_oscillatory_family():
    field = make_harmonic_family("a", profile_log_oscillatory(0.15, 1.0), 2)
    sol = solve_dirichlet(field, H6, "v_rich_mix")
    prof = decompose(gradient_field(sol), H6, radii_for(H6))
    table = compare_with_dynamics(prof, FullSystem(field))
    assert np.all(np.isfinite(table["relative_deviation"]))


def test_profile_and_solution_csv(tmp_path):
    prof = control_profile()
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof)
    header = path.read_text().splitlines()[0]
    assert header == ("r,U0_1,U0_2,V1_1,V1_2,V2_1,V2_2,"
                      "rVp_1,rVp_2,rVp_3,rVp_4,Mp_W,M1p_W")
    sol = solve_dirichlet(constant_laplacian(), H5, "quadratic_saddle")
    spath = tmp_path / "solution.csv"
    write_solution_csv(spath, sol)
    lines = spath.read_text().splitlines()
    assert lines[0].startswith("# L=0.6875 h=0.03125 ordering=row-major-y-then-x")
    assert len(lines) == 2 + (sol.n_cells + 1) ** 2
    # one value per line, y outer and x inner, at full precision
    N = sol.n_cells
    assert lines[1:] == ["u"] + ["%.17g" % sol.u[ix, iy]
                                 for iy in range(N + 1) for ix in range(N + 1)]
