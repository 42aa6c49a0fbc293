import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcgm import linalg
from dcgm.fem import assemble_mass, assemble_stiffness, stability_form
from dcgm.heston import assemble_tensor_stiffness
from dcgm.linalg import (_LEVEL_BLOCK_CAP, SolutionHistory, _level_blocks,
                         _level_order, _LevelBlocks, bicgstab_solve, cg_solve)
from dcgm.mesh import build_disk_mesh, build_rect_mesh

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
    x, report = cg_solve(A, b, tol=1e-12)
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


def dominant_system(seed: int, n: int, symmetric: bool) -> sp.csr_matrix:
    """Random sparse matrix with a positive diagonal that dominates each row
    strictly: SPD when symmetric, nonsingular either way."""
    rng = np.random.default_rng(seed)
    off = sp.random(n, n, density=0.3, rng=rng, format="csr",
                    data_rvs=lambda k: rng.uniform(-1.0, 1.0, k))
    if symmetric:
        off = off + off.T
    off.setdiag(0.0)
    dominance = np.abs(off).sum(axis=1).A1 + rng.uniform(0.01, 2.0, n)
    return (off + sp.diags(dominance)).tocsr()


# the sweeps update their vectors in place; these are the same recurrences
# written with a new array per operation, in the same operation order


def _textbook_cg(A, x, r, precond, target, budget):
    z = precond(r)
    p = z
    rz = float(r @ z)
    it = 0
    while it < budget:
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            return it, True
        alpha = rz / pAp
        x += alpha * p
        r = r - alpha * Ap
        it += 1
        if float(np.linalg.norm(r)) <= target:
            break
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return it, False


def _textbook_bicgstab(A, x, r, precond, target, budget):
    r_hat = r
    rho = alpha = omega = 1.0
    v = p = np.zeros_like(r)
    it = 0
    while it < budget:
        rho_new = float(r_hat @ r)
        if rho_new == 0.0 or omega == 0.0:
            return it, True
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        ph = precond(p)
        v = A @ ph
        denom = float(r_hat @ v)
        if denom == 0.0:
            return it, True
        alpha = rho / denom
        s = r - alpha * v
        it += 1
        if float(np.linalg.norm(s)) <= target:
            x += alpha * ph
            break
        sh = precond(s)
        t = A @ sh
        tt = float(t @ t)
        if tt == 0.0:
            return it, True
        omega = float(t @ s) / tt
        x += alpha * ph + omega * sh
        r = s - omega * t
        if float(np.linalg.norm(r)) <= target:
            break
    return it, False


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweeps_match_the_textbook_recurrences(disk60, seed):
    # bit for bit, across restarts: the same iterate, residual and count
    rng = np.random.default_rng(seed)
    spd = (assemble_mass(disk60) + 0.1 * assemble_stiffness(disk60)).tocsr()
    general = dominant_system(seed, 300, symmetric=False)
    for A, sweep, textbook, window in (
            (spd, linalg._cg_sweep, _textbook_cg, linalg._CG_WINDOW),
            (general, linalg._bicgstab_sweep, _textbook_bicgstab,
             linalg._BICGSTAB_WINDOW)):
        b = rng.standard_normal(A.shape[0])
        x, report = linalg._solve(A, b, 1e-13, None, sweep, None, None, window)
        y, expected = linalg._solve(A, b, 1e-13, None, textbook, None, None,
                                    window)
        assert report.iterations > 1
        assert np.array_equal(x, y) and report == expected


def test_sweeps_allow_a_preconditioner_that_returns_its_input(disk60):
    # the identity returns the residual itself; the work vectors must not
    # share memory with it, so the solve is that of an identity that copies
    A = (assemble_mass(disk60) + 0.1 * assemble_stiffness(disk60)).tocsr()
    b = A @ np.random.default_rng(3).standard_normal(disk60.nv)
    for solve in (cg_solve, bicgstab_solve):
        x, report = solve(A, b, tol=1e-12, precond=lambda r: r)
        y, expected = solve(A, b, tol=1e-12, precond=lambda r: r.copy())
        assert report.converged and report == expected
        assert np.array_equal(x, y)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60),
       symmetric=st.booleans(), n_rhs=st.integers(1, 40),
       drift=st.floats(-15.0, 1.0))
# right-hand sides that move by 1.7e-12: rounding made the projected start
# 2.2e-13 ||b|| worse than the newest solution
@example(seed=13507, n=19, symmetric=True, n_rhs=24, drift=-11.7578125)
def test_history_start_never_worse(seed, n, symmetric, n_rhs, drift):
    # a sequence of right-hand sides that each move by 10**drift: the
    # projected start is never worse than the previous solution, whatever
    # the window has been through, and every solve meets the tolerance
    A = dominant_system(seed, n, symmetric)
    solve = cg_solve if symmetric else bicgstab_solve
    rng = np.random.default_rng(seed + 1)
    history = SolutionHistory()
    b = rng.standard_normal(n)
    x = None
    for _ in range(n_rhs):
        b = b + 10.0**drift * rng.standard_normal(n)
        norm_b = np.linalg.norm(b)
        x_prev = x
        x, report = solve(A, b, tol=1e-12, x0=x_prev, history=history)
        assert report.converged
        assert np.linalg.norm(b - A @ x) <= 1e-12 * norm_b
        assert report.residual == pytest.approx(np.linalg.norm(b - A @ x), rel=1e-12)
        if x_prev is not None:
            from_prev = np.linalg.norm(b - A @ x_prev)
            assert report.start_residual <= from_prev + 1e-13 * norm_b


def test_history_serves_one_matrix(disk60):
    M = assemble_mass(disk60)
    b = M @ np.ones(disk60.nv)
    history = SolutionHistory()
    cg_solve(M, b, history=history)
    with pytest.raises(ValueError, match="one matrix"):
        cg_solve(M.copy(), b, history=history)
    with pytest.raises(ValueError, match="one matrix"):
        bicgstab_solve(2.0 * M, b, history=history)


def test_history_start_after_a_repeat(disk60):
    # the same right-hand side twice: the second solve starts converged and
    # its start residual is the reported one
    M = assemble_mass(disk60)
    b = M @ np.random.default_rng(3).standard_normal(disk60.nv)
    history = SolutionHistory()
    x1, first = cg_solve(M, b, tol=1e-12, history=history)
    x2, second = cg_solve(M, b, tol=1e-12, history=history)
    assert first.start_residual == pytest.approx(np.linalg.norm(b), rel=1e-15)
    assert first.iterations > 0
    assert second.iterations == 0
    assert second.start_residual == second.residual <= 1e-12 * np.linalg.norm(b)
    np.testing.assert_allclose(x2, x1, rtol=0, atol=1e-11 * np.abs(x1).max())


@pytest.mark.parametrize("solve, window", [(cg_solve, 16), (bicgstab_solve, 32)])
def test_history_window_follows_the_solver(solve, window):
    # a history fed by CG holds up to 16 solutions and one fed by BiCGStab
    # up to 32; a full window keeps the span of its newest half, then grows
    n = 120
    A = dominant_system(4, n, symmetric=solve is cg_solve)
    rng = np.random.default_rng(5)
    history = SolutionHistory()
    expected = []
    for _ in range(3 * window):
        _, report = solve(A, rng.standard_normal(n), tol=1e-12, history=history)
        assert report.converged
        count = expected[-1] if expected else 0
        expected.append((window // 2 if count == window else count) + 1)
        assert history.count == expected[-1]
    assert max(expected) == window and expected[window] == window // 2 + 1
    assert history.Y.shape == history.Q.shape == (window, n)


def test_energy_reads_the_final_product(disk60):
    # every way a solve ends reports x . (A x) of the x it returns, bit for
    # bit: the sweeps, a start that meets the tolerance (warm, from a
    # history or from a factor) and a zero right-hand side
    A = (assemble_mass(disk60) + 0.1 * assemble_stiffness(disk60)).tocsr()
    b = A @ np.random.default_rng(9).standard_normal(disk60.nv)
    factor = _level_blocks(A, 1e-12).solve
    for solve in (cg_solve, bicgstab_solve):
        history = SolutionHistory()
        ends = [solve(A, b, tol=1e-12, history=history)]
        ends.append(solve(A, b, tol=1e-12, x0=ends[0][0]))
        ends.append(solve(A, b, tol=1e-12, history=history))
        ends.append(solve(A, b, tol=1e-12, x0=factor(b), precond=factor))
        assert ends[0][1].iterations > 0
        assert [r.iterations for _, r in ends[1:]] == [0, 0, 0]
        for x, report in ends:
            assert report.energy == float(x @ (A @ x))
        assert solve(A, np.zeros(disk60.nv))[1].energy == 0.0


def test_non_finite_rhs_fails_at_once(disk60):
    M = assemble_mass(disk60)
    for solve in (cg_solve, bicgstab_solve):
        for bad in (np.nan, np.inf):
            b = np.ones(disk60.nv)
            b[7] = bad
            with pytest.raises(ValueError, match="not finite"):
                solve(M, b)


def spd_tridiagonal(n: int) -> sp.csr_matrix:
    off = -np.ones(n - 1)
    return sp.diags([off, 4.0 * np.ones(n), off], [-1, 0, 1], format="csr")


@pytest.mark.parametrize("solve", [cg_solve, bicgstab_solve])
@pytest.mark.parametrize("tol, want", [
    pytest.param(np.inf, "finite", id="inf"), pytest.param(0.0, "> 0", id="0.0"),
    pytest.param(-1.0, "> 0", id="-1.0"), pytest.param(np.nan, "finite", id="nan"),
])
def test_bad_tolerance_fails_at_once(solve, tol, want):
    # an infinite tol took x = 0 as converged; 0, -1 and NaN ran iterations
    # that no residual could stop
    A = spd_tridiagonal(1000)
    with pytest.raises(ValueError, match=rf"^tol must be {want}, not"):
        solve(A, np.ones(1000), tol=tol)


def test_a_tolerance_below_rounding_is_reported_unconverged():
    # a finite tol no residual can meet is no bad input: the solve stops
    # within its budget of 10 n iterations and says it did not converge
    A = stability_form(build_disk_mesh(40), 1e-3, 0.1)
    n = A.shape[0]
    _, report = cg_solve(A, np.ones(n), tol=1e-300)
    assert not report.converged
    assert report.iterations <= 10 * n


@pytest.mark.parametrize("solve", [cg_solve, bicgstab_solve])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_fails_at_once(solve, bad):
    # a NaN start ran all 10 n iterations and reported a NaN residual
    A = spd_tridiagonal(1000)
    x0 = np.zeros(1000)
    x0[17] = bad
    with pytest.raises(ValueError, match="start residual is not finite"):
        solve(A, np.ones(1000), x0=x0)


# the level-block factor: an exact solve with a P1 matrix in the
# breadth-first level order of its graph, used as the start and the
# preconditioner


def _rect_or_disk(data):
    if data.draw(st.booleans(), label="rect"):
        return build_rect_mesh(data.draw(st.integers(2, 30), label="nx"),
                               data.draw(st.integers(2, 30), label="ny"),
                               data.draw(st.floats(0.1, 10.0), label="x_max"),
                               data.draw(st.floats(0.1, 10.0), label="y_max"))
    return build_disk_mesh(data.draw(st.integers(8, 60), label="N"))


def _reference_sweep(blocks, level, r):
    # the factor's two sweeps on whole-array slices of a fresh level-ordered
    # copy of r, with the same blocks in the same order
    perm = np.argsort(level, kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(level))])
    lv = [slice(start[j], start[j + 1]) for j in range(len(start) - 1)]
    v = r[perm]
    for j, (g, _, _) in enumerate(blocks._forward):
        v[lv[j + 1]] -= g @ v[lv[j]]
    for j, (b, _, _) in zip(reversed(range(len(lv))), blocks._backward):
        v[lv[j]] = b @ v[lv[j].start:lv[j].stop + b.shape[1] - b.shape[0]]
    z = np.empty_like(v)
    z[perm] = v
    return z


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       log_s=st.floats(-3.0, 3.0),
       kind=st.sampled_from(["laplacian", "tensor", "nonsymmetric"]))
def test_level_blocks_solve_exactly(data, seed, log_s, kind):
    # M + s K with the Laplacian or a constant PSD tensor (possibly
    # singular) of the mesh pattern, or a random nonsymmetric matrix of that
    # pattern with a strictly dominant diagonal of either sign.  b = A y: a
    # random b would put cond(A) into the residual of any solver, dense LU
    # included
    mesh = _rect_or_disk(data)
    rng = np.random.default_rng(seed)
    if kind == "nonsymmetric":
        A = assemble_mass(mesh).tocoo()
        A.data = rng.uniform(-1.0, 1.0, A.nnz) * (A.row != A.col)
        A = A.tocsr()
        dominance = np.abs(A).sum(axis=1).A1 + rng.uniform(0.1, 1.0, mesh.nv)
        A = (A + sp.diags(dominance * rng.choice([-1.0, 1.0], mesh.nv))).tocsr()
    else:
        if kind == "tensor":
            root = rng.standard_normal((2, 2)) * rng.integers(0, 2, size=(2, 1))
            D = root.T @ root
            K = assemble_tensor_stiffness(
                mesh, lambda x, y: np.broadcast_to(D, np.shape(x) + (2, 2)))
        else:
            K = assemble_stiffness(mesh)
        A = (assemble_mass(mesh) + 10.0**log_s * K).tocsr()
    b = A @ rng.standard_normal(mesh.nv)
    level = _level_order(A)
    blocks = _LevelBlocks(A, level)
    b_kept = b.copy()
    x = blocks.solve(b)
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    assert np.array_equal(b, b_kept)
    assert np.array_equal(x, _reference_sweep(blocks, level, b))
    # the factor reuses one work vector; a second solve leaves the first
    # one's result alone
    x_kept = x.copy()
    blocks.solve(rng.standard_normal(mesh.nv))
    assert np.array_equal(x, x_kept)
    if kind == "nonsymmetric":
        # preconditioned by the factor, BiCGStab stops after one iteration
        x, report = bicgstab_solve(A, b, tol=1e-12, precond=blocks.solve)
        assert report.converged and report.iterations == 1


@pytest.mark.parametrize("build", [lambda: build_rect_mesh(6, 5, 2.0, 1.0),
                                   lambda: build_disk_mesh(30)],
                         ids=["rect", "disk"])
def test_level_blocks_reject_a_coupling_two_levels_apart(build):
    A = assemble_mass(build())
    level = _level_order(A)
    _LevelBlocks(A, level)
    i = int(np.flatnonzero(level == 0)[0])
    j = int(np.flatnonzero(level == 2)[0])
    bump = sp.csr_matrix(([1e-3, 1e-3], ([i, j], [j, i])), shape=A.shape)
    with pytest.raises(ValueError, match="more than one level apart"):
        _LevelBlocks((A + bump).tocsr(), level)


def test_level_blocks_reject_a_disconnected_graph():
    # two disjoint 2 x 2 blocks: the breadth-first levels never reach the
    # second, and the error says so before the blocks are counted
    A = sp.block_diag([np.array([[2.0, -1.0], [-1.0, 2.0]])] * 2, format="csr")
    with pytest.raises(ValueError, match="not connected"):
        _level_blocks(A, 1e-12)


def test_level_block_cap():
    # the widths alone decide: the desk grid is factored, the N = 400 bell
    # disk is not
    def block_entries(mesh):
        return int(np.sum(np.bincount(_level_order(assemble_mass(mesh))) ** 2))

    assert block_entries(build_rect_mesh(60, 60, 200.0, 2.0)) <= _LEVEL_BLOCK_CAP
    assert block_entries(build_disk_mesh(400)) > _LEVEL_BLOCK_CAP
    assert _level_blocks(assemble_mass(build_disk_mesh(400)), 1e-12) is None


@pytest.mark.parametrize("dense", [
    [[0.0, 1.0], [1.0, 1.0]],  # zero first block
    [[2.0, 1.0, 0.0], [1.0, 0.5, 1.0], [0.0, 1.0, 2.0]],  # S_1 = 0
    [[1e-17, 1.0], [1.0, 1.0]],  # tiny pivot: solves with residual ~ ||b||
], ids=["zero-block", "singular-schur", "tiny-pivot"])
def test_level_blocks_refuse_a_breakdown(dense):
    # the blocks are not pivoted: a singular Schur complement raises inside
    # the factorization, and a tiny pivot factors silently but fails the
    # probe solve; either way there is no factor, and its caller keeps Jacobi
    A = sp.csr_matrix(np.array(dense))
    assert _level_blocks(A, 1e-12) is None
    # the same check lets a well-posed matrix of the same pattern through
    A = sp.csr_matrix(np.array(dense) + 4.0 * np.eye(len(dense)))
    assert _level_blocks(A, 1e-12) is not None


def test_exact_preconditioner_takes_one_iteration(disk60):
    # with the factor as preconditioner both solvers stop after one
    # iteration, and the report carries the true residual; started from the
    # factor's solution they stop before the first
    A = (assemble_mass(disk60) + 0.1 * assemble_stiffness(disk60)).tocsr()
    blocks = _level_blocks(A, 1e-12)
    b = A @ np.random.default_rng(5).standard_normal(disk60.nv)
    for solve in (cg_solve, bicgstab_solve):
        x, report = solve(A, b, tol=1e-12, precond=blocks.solve)
        assert report.converged
        assert report.iterations == 1
        assert report.residual == pytest.approx(np.linalg.norm(b - A @ x), rel=1e-12)
        assert report.residual <= 1e-12 * np.linalg.norm(b)
        x0 = blocks.solve(b)
        x, report = solve(A, b, tol=1e-12, x0=x0, precond=blocks.solve)
        assert report.converged and report.iterations == 0
        assert np.array_equal(x, x0)
        assert report.residual == report.start_residual
