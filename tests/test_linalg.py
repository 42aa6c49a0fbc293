import numpy as np
import pytest
import scipy.sparse as sp

from dcgm.fem import assemble_mass
from dcgm.linalg import bicgstab_solve, cg_solve

# validation, the zero right-hand side, warm start and the true-residual
# report live in one driver that both solvers share; each check below runs
# against both


def test_square_required():
    for solve in (cg_solve, bicgstab_solve):
        with pytest.raises(ValueError, match="square"):
            solve(sp.csr_matrix(np.ones((2, 3))), np.ones(2))
        with pytest.raises(ValueError, match="length"):
            solve(sp.identity(3, format="csr"), np.ones(2))


def test_cg_mass_system(disk60):
    M = assemble_mass(disk60)
    ones = np.ones(disk60.nv)
    b = M @ ones
    x, report = cg_solve(M, b, tol=1e-13)
    assert report.converged
    assert np.max(np.abs(x - ones)) < 1e-10
    # report carries the true residual, not the recurrence estimate
    assert report.residual <= 1e-13 * np.linalg.norm(b) * 10


def _check_zero_rhs(solve, mesh):
    x, report = solve(assemble_mass(mesh), np.zeros(mesh.nv))
    assert report.converged
    assert not x.any()
    assert report.iterations == 0


def test_cg_zero_rhs(disk60):
    _check_zero_rhs(cg_solve, disk60)


def test_bicgstab_zero_rhs(disk60):
    _check_zero_rhs(bicgstab_solve, disk60)


def _check_warm_start(solve, mesh):
    M = assemble_mass(mesh)
    rng = np.random.default_rng(7)
    b = M @ rng.standard_normal(mesh.nv)
    x_cold, rep_cold = solve(M, b, tol=1e-12)
    x0 = x_cold.copy()
    x_warm, rep_warm = solve(M, b, tol=1e-12, x0=x0)
    # a converged start already meets the true-residual rule
    assert rep_warm.converged and rep_cold.iterations > 0
    assert rep_warm.iterations == 0
    assert np.array_equal(x_warm, x_cold)
    assert np.array_equal(x0, x_cold)  # the warm start is not overwritten


def test_cg_warm_start(disk60):
    _check_warm_start(cg_solve, disk60)


def test_bicgstab_warm_start(disk60):
    _check_warm_start(bicgstab_solve, disk60)


def test_cg_honest_on_indefinite():
    # the first direction has zero curvature: CG stops at once and reports
    # the true residual of x = 0
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    b = np.array([1.0, 1.0])
    x, report = cg_solve(A, b, tol=1e-12, max_iter=50)
    assert not report.converged
    assert report.iterations == 0
    assert report.residual == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert not x.any()


def test_bicgstab_nonsymmetric():
    A = sp.csr_matrix(np.array([[4.0, 1.0, 0.0],
                                [-1.0, 4.0, 1.0],
                                [0.0, -1.0, 4.0]]))
    b = np.array([1.0, 2.0, 3.0])
    x, report = bicgstab_solve(A, b, tol=1e-12)
    assert report.converged
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
