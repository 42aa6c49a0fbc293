"""Time-stepping schemes: fixed points, conservation, reuse, diagnostics."""
import math
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from dcgm.characteristics import rotation_field, uniform_field
from dcgm.fem import FieldP1, assemble_mass, integral, interpolate
from dcgm.mesh import build_disk_mesh, build_rect_mesh
from dcgm.schemes import (CflWarning, SchemeConfig, StepDiagnostics, StepError,
                          centered_prepare, centered_step, cfl_dt_guideline,
                          dcgm_dirichlet_prepare, dcgm_dirichlet_step,
                          dcgm_prepare, dcgm_step, pcgm_step, supg_prepare,
                          supg_step)


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
    cfg = SchemeConfig(nu=1e-3, dt=0.05, solver_tol=1e-15, solver_max_iter=1)
    op = dcgm_prepare(disk100, rotation_field(), cfg)
    with pytest.raises(StepError):
        dcgm_step(op, bump(disk100))


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


def test_diagnostics_csv_row(disk100):
    op = dcgm_prepare(disk100, rotation_field(), CFG)
    _, diag = dcgm_step(op, bump(disk100))
    header = StepDiagnostics.csv_header()
    row = diag.csv_row(3)
    assert header.count(",") == row.count(",")
    assert row.startswith("3,")


def _dirichlet_step(op, u_prev):
    return dcgm_dirichlet_step(op, u_prev, 0.0)


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


def test_characteristic_steps_check_the_direction(disk100):
    u = bump(disk100)
    with pytest.raises(ValueError):
        dcgm_step(dcgm_prepare(disk100, rotation_field(), CFG, dual=False), u)
    with pytest.raises(ValueError):
        pcgm_step(dcgm_prepare(disk100, rotation_field(), CFG), u)


@settings(max_examples=50, deadline=None)
@given(ax=st.floats(-2.0, 2.0), ay=st.floats(-2.0, 2.0),
       dt=st.floats(0.01, 0.3), quadrature=st.sampled_from(["midedge", "ninepoint"]))
def test_transport_mass_identity(ax, ay, dt, quadrature):
    # 1^T rhs_mat = 1^T M: the dual transport moves mass, never makes it,
    # even for images that left the rectangle and were projected back
    mesh = build_rect_mesh(6, 5, 1.0, 0.8)
    config = SchemeConfig(nu=1e-3, dt=dt, quadrature=quadrature)
    op = dcgm_prepare(mesh, uniform_field(ax, ay), config)
    column_sums = np.asarray(op.rhs_mat.sum(axis=0)).ravel()
    lumped = assemble_mass(mesh) @ np.ones(mesh.nv)
    np.testing.assert_allclose(column_sums, lumped, rtol=1e-13, atol=0.0)
