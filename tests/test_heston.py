"""Kolmogorov-forward application: operator algebra, oracles, invariants.

The drift rewrite is checked against a finite-difference expansion of the raw
second-order form, so any error in the divergence bookkeeping shows up as an
O(1) residual instead of an O(grid^2) one.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from dcgm import heston, linalg
from dcgm.fem import (assemble_local, assemble_mass, assemble_stiffness,
                      basis_gradients, interpolate)
from dcgm.heston import (HestonParams, TensorField, _boundary_weights,
                         _initial_density, assemble_tensor_stiffness,
                         boundary_mass, expectation,
                         expectation_weights, heston_operator, heston_run,
                         put_payoff, put_price)
from dcgm.mesh import build_disk_mesh, build_rect_mesh
from dcgm.quadrature import nine_point_rule
from dcgm.linalg import cg_solve
from dcgm.schemes import SchemeConfig, dcgm_prepare, dcgm_step
from scipy.stats import norm


def test_params_validation():
    with pytest.raises(ValueError):
        HestonParams(kappa=-1.0)
    with pytest.raises(ValueError):
        HestonParams(rho=-1.5)
    with pytest.raises(ValueError):
        HestonParams(T=0.0)
    # a put with a strike at or below 0 pays nothing
    for bad in (-5.0, 0.0):
        with pytest.raises(ValueError, match="strike must be > 0"):
            HestonParams(strike=bad)
    # a non-finite input fails here, not after 10 n CG iterations of a run
    for name in ("r", "mu", "mu_v", "strike", "T", "kappa", "x_max"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                HestonParams(**{name: bad})


@pytest.mark.parametrize("args, name", [
    ((10, 10, 2.5), "n_steps"),
    ((10, 10, 0), "n_steps"),
    ((10.5, 10, 5), "nx"),
    ((10, 10.0, 5), "ny"),
    ((0, 10, 5), "nx"),
    ((10, 10, True), "n_steps"),
])
def test_run_sizes_fail_before_any_work(monkeypatch, args, name):
    # a grid or step count no run can use is refused, naming the argument,
    # before the run builds its mesh, transport or factor
    def refuse(*a, **k):
        raise AssertionError("the run started building")

    for stage in ("dcgm_prepare", "assemble_tensor_stiffness", "_level_blocks"):
        monkeypatch.setattr(heston, stage, refuse)
    with pytest.raises(ValueError, match=rf"^{name} must be a whole number"):
        heston_run(HestonParams(), *args)


def test_run_accepts_numpy_integer_sizes():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, steps, _ = heston_run(HestonParams(), np.int64(8), np.int32(8),
                                 np.int64(2))
    assert len(steps) == 2


@pytest.mark.parametrize("name, value", [
    ("strike", "75"), ("T", None), ("x_max", [200.0]), ("rho", "-0.5"),
    # a bool is no number, and a truthy string is no flag: "no" switched
    # the off-diagonal coefficient from lam to rho lam
    ("rho", True), ("offdiag_rho", "no"), ("offdiag_rho", 1),
])
def test_a_parameter_that_is_no_number_names_itself(name, value):
    # refused as a ValueError naming the field, not numpy's TypeError
    want = "a bool" if name == "offdiag_rho" else "finite"
    with pytest.raises(ValueError, match=rf"^{name} must be {want}"):
        HestonParams(**{name: value})


def test_a_factored_run_makes_one_history_and_never_adds(history_log):
    # the run loop makes the run's one history; the factor's start meets
    # the tolerance, so no step reads the history or adds to it
    made, added = history_log
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, steps, _ = heston_run(HestonParams(), 10, 10, 3)
    assert len(made) == 1
    assert added == []
    assert [s.diag.solver.iterations for s in steps] == [0, 0, 0]


def test_offdiag_coeff_switch():
    assert HestonParams().offdiag_coeff == pytest.approx(0.2)
    assert HestonParams(offdiag_rho=True).offdiag_coeff == pytest.approx(-0.1)
    assert HestonParams(offdiag_rho=np.True_).offdiag_coeff == pytest.approx(-0.1)


def test_diffusion_at_point():
    tf = heston_operator(HestonParams())
    D = tf.diffusion(np.array([1.0]), np.array([1.0]))[0]
    assert np.allclose(D, [[0.5, 0.1], [0.1, 0.02]], atol=1e-15)
    assert np.allclose(D, D.T)


def test_diffusion_vanishing_lambda():
    tf = heston_operator(HestonParams(lam=1e-300))
    D = tf.diffusion(np.array([2.0]), np.array([0.5]))[0]
    assert D[0, 0] == pytest.approx(1.0)
    assert abs(D[0, 1]) < 1e-250
    assert abs(D[1, 1]) < 1e-250


def test_drift_jacobian_matches_fd():
    tf = heston_operator(HestonParams())
    x = np.array([37.0]); y = np.array([0.6])
    J = tf.drift.jacobian(x, y)[0]
    h = 1e-6
    for i, (dx, dy) in enumerate([(h, 0.0), (0.0, h)]):
        ap = np.array(tf.drift.value(x + dx, y + dy)).ravel()
        am = np.array(tf.drift.value(x - dx, y - dy)).ravel()
        fd = (ap - am) / (2.0 * h)
        assert np.allclose(J[i], fd, atol=1e-5)


def test_divergence_form_identity():
    # raw: div(b u) - 0.5 sum_ij d_i d_j (A_ij u); rewritten: div(bt u) - div(D grad u)
    p = HestonParams()
    lam, r, kap, th, c = p.lam, p.r, p.kappa, p.theta, p.offdiag_coeff
    h = 1e-3
    xs = np.linspace(20.0, 60.0, 7); ys = np.linspace(0.3, 0.9, 7)
    X, Y = np.meshgrid(xs, ys)
    u = lambda x, y: np.sin(x / 17.0) * np.cos(3.0 * y) + 2.0
    A11 = lambda x, y: x * x * y
    A12 = lambda x, y: lam * x * y
    A22 = lambda x, y: lam * lam * y

    def dx(f, x, y):
        return (f(x + h, y) - f(x - h, y)) / (2.0 * h)

    def dy(f, x, y):
        return (f(x, y + h) - f(x, y - h)) / (2.0 * h)

    def dxx(f, x, y):
        return (f(x + h, y) - 2.0 * f(x, y) + f(x - h, y)) / h ** 2

    def dyy(f, x, y):
        return (f(x, y + h) - 2.0 * f(x, y) + f(x, y - h)) / h ** 2

    def dxy(f, x, y):
        return dy(lambda a, b: dx(f, a, b), x, y)

    raw = (dx(lambda x, y: r * x * u(x, y), X, Y)
           + dy(lambda x, y: kap * (th - y) * u(x, y), X, Y)
           - 0.5 * (dxx(lambda x, y: A11(x, y) * u(x, y), X, Y)
                    + 2.0 * dxy(lambda x, y: A12(x, y) * u(x, y), X, Y)
                    + dyy(lambda x, y: A22(x, y) * u(x, y), X, Y)))

    bt1 = lambda x, y: x * (r - y - c / 2.0)
    bt2 = lambda x, y: kap * (th - y) - (c * y + lam * lam) / 2.0

    def flux1(x, y):
        return 0.5 * (A11(x, y) * dx(u, x, y) + c * x * y * dy(u, x, y))

    def flux2(x, y):
        return 0.5 * (c * x * y * dx(u, x, y) + A22(x, y) * dy(u, x, y))

    rewritten = (dx(lambda x, y: bt1(x, y) * u(x, y), X, Y)
                 + dy(lambda x, y: bt2(x, y) * u(x, y), X, Y)
                 - dx(flux1, X, Y) - dy(flux2, X, Y))
    scale = float(np.max(np.abs(raw)))
    assert float(np.max(np.abs(raw - rewritten))) <= 1e-5 * scale


def test_tensor_stiffness_identity_diffusion(unit_square):
    def eye(x, y):
        return np.broadcast_to(np.eye(2), np.shape(x) + (2, 2))

    Kt = assemble_tensor_stiffness(unit_square, eye)
    K = assemble_stiffness(unit_square)
    assert np.max(np.abs((Kt - K).toarray())) < 1e-13


def test_tensor_stiffness_quadratic_form(unit_square):
    D = np.diag([2.0, 3.0])

    def const(x, y):
        return np.broadcast_to(D, np.shape(x) + (2, 2))

    K = assemble_tensor_stiffness(unit_square, const)
    f = interpolate(unit_square, lambda x, y: np.asarray(x))
    assert f.coeffs @ (K @ f.coeffs) == pytest.approx(2.0, rel=1e-12)
    ones = np.ones(unit_square.nv)
    assert np.max(np.abs(K @ ones)) < 1e-13


def test_tensor_stiffness_matches_einsum():
    # the batched products g D g^T against the three-operand contraction
    params = HestonParams()
    mesh = build_rect_mesh(12, 10, params.x_max, params.y_max)
    rule = nine_point_rule()
    diffusion = heston_operator(params).diffusion
    pts = rule.points @ mesh._tri_xy
    d = np.einsum("q,tqef->tef", rule.weights,
                  diffusion(pts[:, :, 0], pts[:, :, 1]))
    g = basis_gradients(mesh)
    local = np.einsum("tae,tef,tbf->tab", g, d, g) * mesh.areas[:, None, None]
    want = assemble_local(mesh, local)
    got = assemble_tensor_stiffness(mesh, diffusion, rule)
    assert abs(got - want).max() <= 1e-14 * abs(want).max()


def test_price_oracle_tiny_horizon():
    p = HestonParams(T=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        u, steps, price = heston_run(p, 60, 60, 1)
    d = (p.strike - p.mu) / p.sigma
    exact = (p.strike - p.mu) * norm.cdf(d) + p.sigma * norm.pdf(d)
    assert price == pytest.approx(exact, rel=0.01)
    assert steps[-1].price == pytest.approx(price, rel=1e-12)


def test_mass_and_conservation_short_run():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        u, steps, _ = heston_run(HestonParams(T=1.0), 40, 40, 20)
    masses = np.array([s.diag.mass for s in steps])
    assert np.max(np.abs(masses - 1.0)) <= 1e-8


def _desk_operator(params, n, n_steps):
    # the operator heston_run builds, without its factor
    mesh = build_rect_mesh(n, n, params.x_max, params.y_max)
    config = SchemeConfig(nu=1.0, dt=params.T / n_steps, solver_tol=1e-12)
    stiffness = assemble_tensor_stiffness(
        mesh, heston_operator(params).diffusion, nine_point_rule())
    return dcgm_prepare(mesh, heston_operator(params).drift, config,
                        stiffness=stiffness)


def test_factored_run_matches_jacobi_steps():
    # heston_run starts every step from the exact level-block factor's
    # solution, which CG accepts with 0 iterations; the same steps with
    # Jacobi CG on the unfactored operator agree to well within the solver
    # tolerance
    params = HestonParams(T=1.0)
    fields = [_initial_density(build_rect_mesh(30, 30, params.x_max,
                                               params.y_max), params)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        u, steps, _ = heston_run(params, 30, 30, 40,
                                 on_step=lambda k, f: fields.append(f))
    op = _desk_operator(params, 30, 40)
    assert op.factor is None
    plain = _initial_density(op.mesh, params)
    # without a factor the step's solve is Jacobi CG started from u_prev
    rhs = op.rhs_mat @ plain.coeffs
    x, report = cg_solve(op.lhs, rhs, tol=1e-12, x0=plain.coeffs)
    first, diag = dcgm_step(op, plain)
    np.testing.assert_array_equal(first.coeffs, x)
    assert diag.solver == report
    for _ in range(40):
        plain, diag = dcgm_step(op, plain)
        assert diag.solver.iterations > 1
    scale = np.abs(plain.coeffs).max()
    assert np.abs(u.coeffs - plain.coeffs).max() <= 1e-10 * scale
    for prev, s in zip(fields, steps):
        assert s.diag.solver.converged and s.diag.solver.iterations == 0
        rhs = op.rhs_mat @ prev.coeffs
        assert s.diag.solver.residual <= 1e-12 * np.linalg.norm(rhs)
    masses = np.array([s.diag.mass for s in steps])
    assert np.max(np.abs(masses - 1.0)) <= 1e-8


def test_inexact_factor_falls_back_to_a_krylov_pass():
    # a factor whose solution misses the tolerance is only a start: CG,
    # preconditioned with it, runs until the true residual meets the
    # tolerance, to the same field as the exact factor's steps
    params = HestonParams(T=1.0)
    exact = _desk_operator(params, 20, 10)
    blocks = linalg._level_blocks(exact.lhs, exact.solver_tol)
    exact.factor = blocks.solve
    inexact = dataclasses.replace(
        exact, factor=lambda r: (1 + 1e-6) * blocks.solve(r))
    u = v = _initial_density(exact.mesh, params)
    for _ in range(10):
        u, diag = dcgm_step(exact, u)
        assert diag.solver.iterations == 0
        tol = 1e-12 * np.linalg.norm(inexact.rhs_mat @ v.coeffs)
        v, diag = dcgm_step(inexact, v)
        assert diag.solver.start_residual > tol >= diag.solver.residual
        assert diag.solver.iterations >= 1
    scale = np.abs(u.coeffs).max()
    assert np.abs(u.coeffs - v.coeffs).max() <= 1e-10 * scale


def test_failed_factor_check_keeps_jacobi(monkeypatch):
    # a factor that fails its probe solve is not used: heston_run keeps
    # Jacobi CG from the run's solution history, to the same field
    params = HestonParams(T=1.0)
    solve = linalg._LevelBlocks.solve
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        factored, _, _ = heston_run(params, 20, 20, 10)
        monkeypatch.setattr(linalg._LevelBlocks, "solve",
                            lambda self, r: (1 + 1e-6) * solve(self, r))
        u, steps, _ = heston_run(params, 20, 20, 10)
    assert all(s.diag.solver.iterations > 1 for s in steps)
    scale = np.abs(u.coeffs).max()
    assert np.abs(u.coeffs - factored.coeffs).max() <= 1e-10 * scale


def test_grid_over_the_cap_keeps_jacobi(monkeypatch):
    # above the block-entry cap heston_run is not factored: Jacobi CG from
    # the run's solution history, to the same field within the tolerance
    params = HestonParams(T=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        factored, _, _ = heston_run(params, 20, 20, 10)
        monkeypatch.setattr(linalg, "_LEVEL_BLOCK_CAP", 0)
        u, steps, _ = heston_run(params, 20, 20, 10)
    assert all(s.diag.solver.iterations > 1 for s in steps)
    scale = np.abs(u.coeffs).max()
    assert np.abs(u.coeffs - factored.coeffs).max() <= 1e-10 * scale


def test_price_monotone_in_spot():
    prices = []
    for mu in (50.0, 55.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, _, price = heston_run(HestonParams(mu=mu, T=1.0), 40, 40, 15)
        prices.append(price)
    assert prices[1] < prices[0]


def test_thin_strip_mean_growth():
    # freeze the variance coordinate; the spot mean must compound at the rate
    p = HestonParams(kappa=1e-8, theta=0.05, lam=1e-8, mu=50.0, sigma=10.0,
                     mu_v=0.05, sigma_v=0.01, T=1.0, x_max=150.0, y_max=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        u, steps, _ = heston_run(p, 60, 40, 20)
    mean_x = expectation(u, lambda x, y: np.asarray(x), nine_point_rule())
    assert mean_x == pytest.approx(math.exp(0.03) * 50.0, rel=0.05)


def test_put_price_functional(unit_square):
    # density concentrated on the unit square, strike beyond it: price = K - E[x]
    mesh = build_rect_mesh(15, 15, 1.0, 1.0)
    u = interpolate(mesh, lambda x, y: np.ones_like(np.asarray(x)))
    weights = expectation_weights(mesh, put_payoff(2.0), nine_point_rule())
    assert put_price(u, weights) == pytest.approx(1.5, rel=1e-12)


def test_boundary_mass_diagnostic():
    mesh = build_rect_mesh(15, 15, 1.0, 1.0)
    weights = _boundary_weights(mesh)
    interior = interpolate(mesh, lambda x, y: np.exp(
        -40.0 * ((np.asarray(x) - 0.5) ** 2 + (np.asarray(y) - 0.5) ** 2)))
    rim = interpolate(mesh, lambda x, y: np.ones_like(np.asarray(x)))
    assert boundary_mass(interior, weights) < 0.01 * boundary_mass(rim, weights)


@pytest.mark.parametrize("build", [lambda: build_rect_mesh(7, 5, 2.0, 1.0),
                                   lambda: build_disk_mesh(30)],
                         ids=["rect", "disk"])
def test_boundary_weights_are_mass_times_indicator(build):
    mesh = build()
    on_boundary = np.zeros(mesh.nv)
    on_boundary[mesh.boundary_vertices] = 1.0
    np.testing.assert_allclose(_boundary_weights(mesh),
                               assemble_mass(mesh) @ on_boundary,
                               rtol=1e-14, atol=0.0)


def test_boundary_mass_formula():
    # sum over boundary vertices of (M u)_i = (M 1_B) . u, not the lumped
    # masses M 1 restricted to the boundary and dotted with u
    params = HestonParams()
    mesh = build_rect_mesh(60, 60, params.x_max, params.y_max)
    M = assemble_mass(mesh)
    u = _initial_density(mesh, params)
    on_boundary = np.zeros(mesh.nv)
    on_boundary[mesh.boundary_vertices] = 1.0
    got = boundary_mass(u, _boundary_weights(mesh))
    assert got == pytest.approx((M @ u.coeffs)[mesh.boundary_vertices].sum(),
                                rel=1e-13)
    assert got == pytest.approx(6.00e-7, rel=1e-3)
    lumped = ((M @ np.ones(mesh.nv)) * on_boundary) @ u.coeffs  # 2.52e-7
    assert lumped < 0.5 * got


def test_run_rejects_a_non_callable_on_step(monkeypatch):
    def refuse(*a, **k):
        raise AssertionError("the run started building")

    monkeypatch.setattr(heston, "build_rect_mesh", refuse)
    with pytest.raises(ValueError, match=r"^on_step must be callable"):
        heston_run(HestonParams(), 10, 10, 2, on_step=5)
