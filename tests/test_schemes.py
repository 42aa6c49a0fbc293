"""Time-stepping schemes: fixed points, conservation, reuse, diagnostics."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from dcgm import characteristics
from dcgm.characteristics import rotation_field, uniform_field
from dcgm.fem import (FieldP1, assemble_local, assemble_mass,
                      assemble_stiffness, integral, interpolate,
                      nu_dt_norm, stability_form)
from dcgm.linalg import SolutionHistory, _level_blocks
from dcgm.heston import HestonParams, heston_operator
from dcgm.mesh import build_disk_mesh, build_rect_mesh
from dcgm.quadrature import nine_point_rule
from dcgm.schemes import (CflWarning, LinearStep, SchemeConfig,
                          StepDiagnostics, StepError, _boundary_flux_matrix,
                          _convection_matrix, _streamline_derivatives,
                          _streamline_matrix, centered_prepare, centered_step,
                          cfl_dt_guideline, dcgm_dirichlet_prepare,
                          dcgm_dirichlet_step, dcgm_prepare, dcgm_step,
                          pcgm_step, supg_prepare, supg_step)
from test_mesh import unlabelled


CFG = SchemeConfig(nu=1e-3, dt=0.05)


def bump(mesh, center=(0.35, 0.0), sharp=20.0):
    cx, cy = center
    return interpolate(mesh, lambda x, y: np.exp(
        -sharp * ((np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2)))


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(nu=0.0, dt=0.1)
    with pytest.raises(ValueError):
        SchemeConfig(nu=1e-3, dt=-0.1)
    with pytest.raises(ValueError):
        SchemeConfig(nu=1e-3, dt=0.1, sigma=0.5)
    with pytest.raises(ValueError):
        SchemeConfig(nu=1e-3, dt=0.1, quadrature="gauss97")


def test_dcgm_single_step_conserves(disk100):
    op = dcgm_prepare(disk100, rotation_field(), CFG)
    u0 = bump(disk100)
    m0 = integral(u0)
    u1, diag = dcgm_step(op, u0)
    assert abs(integral(u1) - m0) <= 1e-12 * abs(m0)
    assert diag.mass == pytest.approx(integral(u1), rel=1e-14)
    assert diag.solver.converged


def test_dcgm_runs_on_an_unlabelled_mesh():
    # images that leave a mesh without labelled boundary edges are projected
    # onto its free edges, where the prepare used to find nothing
    mesh = unlabelled(build_disk_mesh(40))
    op = dcgm_prepare(mesh, rotation_field(), SchemeConfig(nu=1e-3, dt=0.6))
    assert op.projected_fraction > 0.0
    u0 = bump(mesh)
    u1, diag = dcgm_step(op, u0)
    assert abs(integral(u1) - integral(u0)) <= 1e-12 * integral(u0)
    assert diag.solver.converged


def test_dcgm_constant_zero_velocity(disk100):
    op = dcgm_prepare(disk100, uniform_field(0.0, 0.0), CFG)
    u = FieldP1(disk100, np.ones(disk100.nv))
    for _ in range(3):
        u, _ = dcgm_step(op, u)
    assert np.max(np.abs(u.coeffs - 1.0)) == 0.0


def test_dcgm_operator_reuse_deterministic(disk100):
    op = dcgm_prepare(disk100, rotation_field(), CFG)
    ua = bump(disk100)
    ub = ua.copy()
    for _ in range(4):
        ua, _ = dcgm_step(op, ua)
    for _ in range(4):
        ub, _ = dcgm_step(op, ub)
    assert np.array_equal(ua.coeffs, ub.coeffs)


def test_dcgm_solver_failure_raises(disk100):
    # a negated system matrix is negative definite: CG meets nonpositive
    # curvature on its first direction and the step must not pass it off
    op = dcgm_prepare(disk100, rotation_field(), CFG)
    op.lhs = -op.lhs
    with pytest.raises(StepError) as err:
        dcgm_step(op, bump(disk100))
    assert not err.value.report.converged
    assert err.value.report.iterations == 0


def test_pcgm_translation_oracle():
    # pure translation: one backward-gather step reproduces the shifted bump
    mesh = build_rect_mesh(80, 80, 2.0, 2.0)
    cfg = SchemeConfig(nu=1e-8, dt=0.1)
    g = lambda x, y: np.exp(-30.0 * ((np.asarray(x) - 0.8) ** 2 + (np.asarray(y) - 0.9) ** 2))
    u0 = interpolate(mesh, g)
    op = dcgm_prepare(mesh, uniform_field(0.3, 0.2), cfg, dual=False)
    u1, _ = pcgm_step(op, u0)
    shifted = interpolate(mesh, lambda x, y: g(np.asarray(x) - 0.03, np.asarray(y) - 0.02))
    assert np.max(np.abs(u1.coeffs - shifted.coeffs)) < 1e-4


def test_pcgm_not_conservative_but_close(disk100):
    u0 = bump(disk100)
    m0 = integral(u0)
    op = dcgm_prepare(disk100, rotation_field(), CFG, dual=False)
    u = u0
    for _ in range(5):
        u, _ = pcgm_step(op, u)
    drift = abs(integral(u) - m0) / m0
    assert 0.0 < drift < 0.01


def test_supg_centered_preserve_constants(disk100):
    ones = FieldP1(disk100, np.ones(disk100.nv))
    sys_s = supg_prepare(disk100, rotation_field(), CFG)
    u = ones
    for _ in range(3):
        u, _ = supg_step(sys_s, u)
    assert np.max(np.abs(u.coeffs - 1.0)) <= 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CflWarning)
        sys_c = centered_prepare(disk100, rotation_field(), CFG)
        u = ones
        for _ in range(3):
            u, _ = centered_step(sys_c, u)
    assert np.max(np.abs(u.coeffs - 1.0)) <= 1e-10


def test_centered_cfl_warning(disk100):
    guideline = cfl_dt_guideline(disk100, 1e-3)
    with pytest.warns(CflWarning):
        centered_prepare(disk100, rotation_field(), SchemeConfig(nu=1e-3, dt=2.0 * guideline))
    with warnings.catch_warnings():
        warnings.simplefilter("error", CflWarning)
        centered_prepare(disk100, rotation_field(), SchemeConfig(nu=1e-3, dt=0.5 * guideline))


def test_dirichlet_constant_boundary(disk100):
    op = dcgm_dirichlet_prepare(disk100, uniform_field(0.0, 0.0), CFG)
    u = FieldP1(disk100, np.ones(disk100.nv))
    for _ in range(3):
        u, _ = dcgm_dirichlet_step(op, u, 1.0)
    assert np.max(np.abs(u.coeffs - 1.0)) == 0.0
    # one value per boundary vertex is the same data; a vertex vector is not
    v, _ = dcgm_dirichlet_step(op, u, np.ones(disk100.boundary_vertices.shape))
    assert np.array_equal(v.coeffs, u.coeffs)
    with pytest.raises(ValueError, match="boundary vertex"):
        dcgm_dirichlet_step(op, u, np.ones(disk100.nv))


def test_dirichlet_absorbing_boundary(disk100):
    # g = 0 with tangential flow: mass can only leave
    op = dcgm_dirichlet_prepare(disk100, rotation_field(), CFG)
    u = bump(disk100)
    masses = [integral(u)]
    for _ in range(6):
        u, _ = dcgm_dirichlet_step(op, u, 0.0)
        masses.append(integral(u))
    assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))
    bnd = disk100.boundary_vertices
    assert np.max(np.abs(u.coeffs[bnd])) == 0.0


def test_dirichlet_prepare_is_a_plain_step_with_a_lift(disk100):
    op = dcgm_dirichlet_prepare(disk100, uniform_field(0.5, -0.3), CFG)
    assert type(op) is LinearStep
    bnd = disk100.boundary_vertices
    assert op.lift.shape == (disk100.nv, bnd.size)
    # boundary rows of lhs are unit rows, those of the transport are empty
    rows = op.lhs[bnd].toarray()
    assert np.array_equal(rows, np.eye(disk100.nv)[bnd])
    assert op.rhs_mat[bnd].nnz == 0
    assert np.array_equal(op.lift[bnd].toarray(), np.eye(bnd.size))
    with pytest.raises(ValueError, match="dcgm_dirichlet_prepare"):
        dcgm_dirichlet_step(dcgm_prepare(disk100, rotation_field(), CFG),
                            bump(disk100), 0.0)
    # a step that imposes no values refuses it instead of pinning them to 0
    for step in (supg_step, centered_step):
        with pytest.raises(ValueError, match="dcgm_dirichlet_step"):
            step(op, bump(disk100))


def test_dirichlet_step_matches_interior_elimination():
    # the interior unknowns solve the interior block of the flux-corrected
    # matrix, with the imposed values moved to the right-hand side
    mesh = build_disk_mesh(40)
    field = uniform_field(0.5, -0.3)
    op = dcgm_dirichlet_prepare(mesh, field, CFG)
    plain = dcgm_prepare(mesh, field, CFG)
    matrix = (plain.lhs - CFG.dt * _boundary_flux_matrix(mesh, field)).toarray()
    inn, bnd = mesh.interior_vertices, mesh.boundary_vertices
    u = bump(mesh, center=(0.6, 0.1), sharp=5.0)
    g = 0.1 + mesh.vertices[bnd, 0] ** 2
    rhs = (plain.rhs_mat @ u.coeffs)[inn] - matrix[np.ix_(inn, bnd)] @ g
    want = np.empty(mesh.nv)
    want[inn] = np.linalg.solve(matrix[np.ix_(inn, inn)], rhs)
    want[bnd] = g
    got, _ = dcgm_dirichlet_step(op, u, g)
    assert np.max(np.abs(got.coeffs - want)) <= 1e-10 * np.max(np.abs(want))


def test_dirichlet_boundary_is_exact_with_a_history(disk60):
    op = dcgm_dirichlet_prepare(disk60, rotation_field(), CFG)
    bnd = disk60.boundary_vertices
    u, history = bump(disk60), SolutionHistory()
    for n in range(1, 8):
        g = np.cos(n + disk60.vertices[bnd, 1])
        u, diag = dcgm_dirichlet_step(op, u, g, history)
        assert diag.solver.converged
        assert np.array_equal(u.coeffs[bnd], g)


def _dirichlet_step(op, u_prev, history=None):
    return dcgm_dirichlet_step(op, u_prev, 0.0, history)


STEPPERS = {
    "dcgm": (dcgm_prepare, dcgm_step),
    "pcgm": (lambda m, f, c: dcgm_prepare(m, f, c, dual=False), pcgm_step),
    "supg": (supg_prepare, supg_step),
    "centered": (centered_prepare, centered_step),
    "dirichlet": (dcgm_dirichlet_prepare, _dirichlet_step),
}


@pytest.mark.parametrize("name", sorted(STEPPERS))
def test_one_step_interface(name, disk60, disk100):
    prepare, step = STEPPERS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CflWarning)
        op = prepare(disk100, rotation_field(), CFG)
    u, diag = step(op, bump(disk100))
    assert isinstance(u, FieldP1) and u.mesh is disk100
    assert isinstance(diag, StepDiagnostics)
    assert diag.mass == integral(u)
    assert diag.min_value == u.coeffs.min() and diag.max_value == u.coeffs.max()
    assert diag.solver.converged
    with pytest.raises(ValueError, match="different mesh"):
        step(op, bump(disk60))


@pytest.mark.parametrize("name", sorted(STEPPERS))
def test_step_norm_is_the_form_norm(name, disk60):
    # each step's norm is that of its new field in the operator's form, bit
    # for bit, whether the solve's energy gives it (form is lhs) or it is
    # computed apart; 20 steps take a CG history past its first halving
    prepare, step = STEPPERS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CflWarning)
        op = prepare(disk60, rotation_field(), CFG)
    assert (op.form is op.lhs) == (name in ("dcgm", "pcgm"))
    u, history = bump(disk60), SolutionHistory()
    for _ in range(20):
        u, diag = step(op, u, history)
        assert diag.norm == nu_dt_norm(u, op.form)


def test_factored_step_norm_is_the_form_norm(disk60):
    # a step started from an exact factor reads its norm from that start
    op = dcgm_prepare(disk60, rotation_field(), CFG)
    op.factor = _level_blocks(op.lhs, CFG.solver_tol).solve
    u = bump(disk60)
    for _ in range(3):
        u, diag = dcgm_step(op, u)
        assert diag.solver.iterations == 0
        assert diag.norm == nu_dt_norm(u, op.form)


def test_characteristic_steps_check_the_direction(disk100):
    u = bump(disk100)
    with pytest.raises(ValueError):
        dcgm_step(dcgm_prepare(disk100, rotation_field(), CFG, dual=False), u)
    with pytest.raises(ValueError):
        pcgm_step(dcgm_prepare(disk100, rotation_field(), CFG), u)
    # an Eulerian operator is refused by name, not by a missing attribute
    supg = supg_prepare(disk100, rotation_field(), CFG)
    for step in (dcgm_step, pcgm_step):
        with pytest.raises(ValueError, match="needs an operator from dcgm_prepare"):
            step(supg, u)


# uniform transports on a small rectangle, many of whose images leave it
transports = given(ax=st.floats(-2.0, 2.0), ay=st.floats(-2.0, 2.0),
                   dt=st.floats(0.01, 0.3),
                   quadrature=st.sampled_from(["midedge", "ninepoint"]))


@settings(max_examples=50, deadline=None)
@transports
def test_transport_mass_identity(ax, ay, dt, quadrature):
    # 1^T rhs_mat = 1^T M: the dual transport moves mass, never makes it,
    # even for images that left the rectangle and were projected back
    mesh = build_rect_mesh(6, 5, 1.0, 0.8)
    config = SchemeConfig(nu=1e-3, dt=dt, quadrature=quadrature)
    op = dcgm_prepare(mesh, uniform_field(ax, ay), config)
    column_sums = np.asarray(op.rhs_mat.sum(axis=0)).ravel()
    lumped = assemble_mass(mesh) @ np.ones(mesh.nv)
    np.testing.assert_allclose(column_sums, lumped, rtol=1e-13, atol=0.0)


@settings(max_examples=50, deadline=None)
@transports
def test_transport_is_nonnegative(ax, ay, dt, quadrature):
    # every transport entry is a sum of positive node weights times clamped
    # barycentrics, so a nonnegative density stays nonnegative on the right
    # side of every characteristic step
    mesh = build_rect_mesh(6, 5, 1.0, 0.8)
    config = SchemeConfig(nu=1e-3, dt=dt, quadrature=quadrature)
    field = uniform_field(ax, ay)
    for op in (dcgm_prepare(mesh, field, config),
               dcgm_prepare(mesh, field, config, dual=False),
               dcgm_dirichlet_prepare(mesh, field, config)):
        assert op.rhs_mat.data.min() >= 0.0


def test_prepare_projects_only_the_images_it_reads(monkeypatch):
    seen = []  # the points of every projection of traced images
    project = characteristics.project_to_domain

    def counted(mesh, points):
        seen.append(np.array(points))
        return project(mesh, points)

    monkeypatch.setattr(characteristics, "project_to_domain", counted)
    # blocks of a few triangles, so the outside images reach the projection
    # in several batches
    monkeypatch.setattr(characteristics, "_BUILD_BLOCK", 64)
    # the Heston drift keeps every forward image in the rectangle but takes
    # backward ones out of it, so the dual prepare projects nothing
    params = HestonParams()
    mesh = build_rect_mesh(10, 10, params.x_max, params.y_max)
    config = SchemeConfig(nu=1.0, dt=params.T / 300)
    op = dcgm_prepare(mesh, heston_operator(params).drift, config)
    assert not op.traced.fwd_projected.any() and op.traced.bwd_projected.any()
    assert seen == []

    # a translation takes images out both ways; the primal prepare projects
    # the backward ones, each once and in order, and never a forward one
    field = uniform_field(0.6, 0.45)
    op = dcgm_prepare(mesh, field, config, dual=False)
    tp = op.traced
    assert tp.fwd_projected.any() and tp.bwd_projected.any()
    assert op.projected_fraction == np.mean(tp.bwd_projected)
    src = (nine_point_rule().points @ mesh._tri_xy).reshape(-1, 2)
    back = characteristics.trace_backward(field, src, config.dt)
    assert len(seen) > 1
    np.testing.assert_array_equal(np.concatenate(seen), back[tp.bwd_projected])


def test_prepare_keeps_no_per_point_array():
    # the traced images are scaffolding for the transport: the build works
    # through them in blocks, and the operator keeps only their two flag
    # arrays
    mesh = build_disk_mesh(400)
    config = SchemeConfig(nu=1e-3, dt=2.0 * math.pi / 133)
    tracemalloc.start()
    try:
        op = dcgm_prepare(mesh, rotation_field(), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
    assert op.rhs_mat is op.traced.transport
    arrays = {name: value for name, value in vars(op.traced).items()
              if isinstance(value, np.ndarray)}
    assert sorted(arrays) == ["bwd_projected", "fwd_projected"]
    assert all(a.dtype == bool for a in arrays.values())


def same_csr(a, b):
    """Equal bit for bit: the same sparsity pattern, order and values."""
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


@settings(max_examples=60, deadline=None)
@given(rect=st.booleans(), n=st.integers(2, 12), extent=st.floats(0.1, 3.0),
       nu=st.floats(1e-6, 1.0), dt=st.floats(1e-3, 1.0),
       scheme=st.sampled_from(sorted(STEPPERS)))
def test_characteristic_lhs_is_the_stability_form(rect, n, extent, nu, dt,
                                                  scheme):
    # every prepare hands its run the stability form M + nu dt K: the
    # characteristic left side is that form, so one assembly serves both,
    # and the Eulerian prepares sum it from the M and K they assemble
    mesh = (build_rect_mesh(n, n + 1, extent, 0.7 * extent) if rect
            else build_disk_mesh(8 + 4 * n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CflWarning)
        op = STEPPERS[scheme][0](mesh, rotation_field(), SchemeConfig(nu=nu, dt=dt))
    form = stability_form(mesh, nu, dt)
    summed = assemble_mass(mesh) + (nu * dt) * assemble_stiffness(mesh)
    if scheme in ("supg", "centered"):
        assert same_csr(op.form, summed)
    else:
        assert same_csr(op.form, form)
    if scheme in ("dcgm", "pcgm"):
        assert op.form is op.lhs
    assert abs(op.form - form).max() <= 1e-14 * abs(form).max()
    assert abs(op.form - summed).max() <= 1e-14 * abs(summed).max()


@pytest.mark.parametrize("field", [rotation_field(), uniform_field(0.7, -1.3)])
def test_centered_is_the_plain_galerkin_system(disk100, field):
    # a streamline weight of 0 leaves exactly M + dt (C + nu K) and M
    mass = assemble_mass(disk100)
    conv = _convection_matrix(disk100, *_streamline_derivatives(disk100, field))
    lhs = mass + CFG.dt * (conv + CFG.nu * assemble_stiffness(disk100))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CflWarning)
        op = centered_prepare(disk100, field, CFG)
    assert same_csr(op.lhs, lhs)
    assert same_csr(op.rhs_mat, mass)


@pytest.mark.parametrize("field", [rotation_field(), uniform_field(0.7, -1.3)])
def test_advection_kernels_match_einsum(disk100, field):
    rule, adg = _streamline_derivatives(disk100, field)
    w, phi = rule.weights, rule.points
    area = disk100.areas[:, None, None]
    conv = assemble_local(disk100, np.einsum("q,qi,tqj->tij", w, phi, adg) * area)
    stream = assemble_local(disk100, np.einsum("q,tqi,tqj->tij", w, adg, adg) * area)
    for got, want in ((_convection_matrix(disk100, rule, adg), conv),
                      (_streamline_matrix(disk100, rule, adg), stream)):
        assert abs(got - want).max() <= 1e-14 * abs(want).max()
