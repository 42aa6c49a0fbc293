"""Preconditioned Krylov solvers on scipy CSR matrices, and an exact
level-block solve to start and precondition them with.

The loops are written out here so the stopping rule is explicit and shared:
one driver owns validation, warm start, restarts and the report, and both
solvers report the true residual of the returned iterate, never the
recurrence residual alone.  The preconditioner is Jacobi, ``r / diag(A)``,
unless the caller passes another.

A run that solves one matrix against a sequence of right-hand sides passes
either a :class:`SolutionHistory` or starts each solve from an exact
factor's solution.  With a history each solve starts from the combination
of the run's recent solutions whose residual is smallest (Fischer's
projection, CMAME 163, 1998), and each converged solution joins the
history.  The window follows the solver that feeds it: 16 solutions for
CG, and 32 for BiCGStab, whose nonsymmetric systems lose the most each
time a full window halves to its newest half.  On the comparison runs the
32-solution window takes the mean BiCGStab iterations per step from 52.5,
71.3 and 92.5 to 50.4, 64.0 and 82.2 (streamline-upwind, N = 100, 200 and
300) and from 172.9, 70.2 and 40.4 to 153.9, 55.1 and 32.0 (centered); at
N = 200 a window of 24 keeps about half that gain and one of 48 adds
little to it.  :func:`_level_blocks` factors A block by block in the
breadth-first level order of its graph (George & Liu, *Computer Solution of
Large Sparse Positive Definite Systems*, 1981); a solve started from the
factor's solution meets the tolerance with 0 iterations, and one that does
not runs a Krylov pass preconditioned with the factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import _real

__all__ = ["SolveReport", "SolutionHistory", "cg_solve", "bicgstab_solve"]

# solutions a history holds, by the solver that feeds it; when full it keeps
# the span of the newest half
_CG_WINDOW = 16
_BICGSTAB_WINDOW = 32
# a solution whose image keeps less than this share of its norm after
# orthogonalization against the held images adds nothing to their span
_HISTORY_DROP = 1e-12
# largest sum of squared level widths that _level_blocks factors; its store
# holds about three times that many floats (3.5 MB for the 60 x 60 desk grid)
_LEVEL_BLOCK_CAP = 2**18


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an iterative solve.

    ``residual`` is the Euclidean norm of b - A x for the returned x,
    recomputed from scratch, and ``iterations`` counts matrix applications
    of the main loop across restarts.  ``start_residual`` is the same norm
    for the first iterate: the warm start, or the projection onto a
    history's solutions.  ``energy`` is x . (A x) for the returned x, read
    from the product the final residual needed (0 for a zero right-hand
    side): with an SPD A, the square of x's norm in A.
    """

    converged: bool
    iterations: int
    residual: float
    start_residual: float
    energy: float


class SolutionHistory:
    """The recent solutions y_j of one matrix A, for starting the next solve.

    The images q_j = A y_j are kept orthonormal, so ``start(b)`` =
    sum_j (q_j . b) y_j is the combination of the held solutions with the
    smallest residual ||b - A x||.  In exact arithmetic the newest solution
    stays in the span, so the start is never worse than it; in a nearly
    dependent basis rounding can break that, so ``start`` also keeps the
    newest solution and returns it when it is the better start.  ``R``
    records the raw images, A x_k = sum_j R[j, k] q_j, which lets a full
    window shrink to the span of its newest half without any matrix
    application.  The first ``add`` fixes the window, the most solutions
    held.  A history serves a single matrix; it belongs to one run.
    """

    def __init__(self):
        self.matrix = None
        self.count = 0
        self.Y = self.Q = self.R = None
        self.newest = None  # (x, A x) of the last solution added

    def _check(self, A) -> None:
        if self.matrix is None:
            self.matrix = A
        elif A is not self.matrix:
            raise ValueError("a solution history serves one matrix; "
                             "this solve passed another")

    def start(self, A, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start ``x`` for ``A x = b`` and its image ``A x``: the held
        combination nearest in residual, or the newest solution when that is
        nearer."""
        self._check(A)
        k = self.count
        x = (self.Q[:k] @ b) @ self.Y[:k]
        ax = A @ x
        x_new, ax_new = self.newest
        if np.linalg.norm(b - ax_new) < np.linalg.norm(b - ax):
            return x_new.copy(), ax_new
        return x, ax

    def add(self, A, x: np.ndarray, ax: np.ndarray, size: int) -> None:
        """Add the solution ``x`` with its image ``ax`` = A x to a window of
        ``size`` solutions, which the first add fixes.

        Classical Gram-Schmidt, applied twice, takes the held images out of
        ``ax``; a solution whose image nearly lies in their span is dropped,
        though it is still kept as the newest one.
        """
        self._check(A)
        self.newest = (x.copy(), ax)
        if self.Y is None:
            n = x.shape[0]
            self.Y = np.empty((size, n))
            self.Q = np.empty((size, n))
            self.R = np.zeros((size, size))
        elif self.count == self.Y.shape[0]:
            self._keep_newest(self.count // 2)
        k = self.count
        Q = self.Q[:k]
        q = ax.copy()
        coef = np.zeros(k)
        for _ in range(2):
            c = Q @ q
            q -= c @ Q
            coef += c
        rho = float(np.linalg.norm(q))
        if not rho > _HISTORY_DROP * float(np.linalg.norm(ax)):
            return
        self.Q[k] = q / rho
        self.Y[k] = (x - coef @ self.Y[:k]) / rho
        self.R[:k, k] = coef
        self.R[k, k] = rho
        self.count = k + 1

    def _keep_newest(self, keep: int) -> None:
        """Replace the held basis by an orthonormal one of the images of the
        newest ``keep`` solutions: R's last columns factor as U T, and the
        new pairs are U^T applied to the old ones."""
        u, t = np.linalg.qr(self.R[:, -keep:])
        self.Q[:keep] = u.T @ self.Q
        self.Y[:keep] = u.T @ self.Y
        self.R[:] = 0.0
        self.R[:keep, :keep] = t
        self.count = keep


def _bfs_levels(nbr: np.ndarray, root: int) -> np.ndarray:
    """Breadth-first level of every vertex from ``root``; ``nbr`` lists the
    neighbours of each vertex, padded with the vertex count.  Unreached
    vertices keep level -1."""
    n = nbr.shape[0]
    level = np.full(n + 1, -1)
    level[n] = 0  # the padding counts as reached
    level[root] = 0
    front = np.array([root])
    k = 0
    while front.size:
        k += 1
        cand = nbr[front].ravel()
        front = np.unique(cand[level[cand] < 0])
        level[front] = k
    return level[:n]


def _level_order(A: sp.csr_matrix) -> np.ndarray:
    """Breadth-first levels of the graph of A's rows from a pseudo-peripheral
    vertex (George & Liu): start from a least-degree vertex, and restart from
    a least-degree vertex of the last level while that deepens the levels.
    A graph that is not connected raises ``ValueError``."""
    n = A.shape[0]
    degree = np.diff(A.indptr)
    nbr = np.full((n, int(degree.max())), n)
    rows = np.repeat(np.arange(n), degree)
    nbr[rows, np.arange(A.nnz) - A.indptr[rows]] = A.indices
    level = _bfs_levels(nbr, int(np.argmin(degree)))
    if (level < 0).any():
        raise ValueError("the graph of the matrix is not connected")
    while True:
        last = np.flatnonzero(level == level.max())
        trial = _bfs_levels(nbr, int(last[np.argmin(degree[last])]))
        if trial.max() <= level.max():
            return level
        level = trial


class _LevelBlocks:
    """Exact solve with a matrix that is block tridiagonal in ``level``.

    With D_j, L_j and U_j the diagonal, lower and upper blocks of level j,
    A = (I + G) (S + U) with S_0 = D_0, G_j = L_j S_{j-1}^-1 and
    S_j = D_j - G_j U_j.  ``solve`` runs one forward sweep with the G_j and
    one backward sweep with B_j = [S_j^-1 | -S_j^-1 U_{j+1}], each a dense
    product per level on views, made once here, of one level-ordered work
    vector; so a factor serves one solve at a time.  Blocks are not
    pivoted: A should be SPD, or otherwise have nonsingular Schur
    complements S_j.
    """

    def __init__(self, A: sp.csr_matrix, level: np.ndarray):
        n = A.shape[0]
        coo = A.tocoo()
        li, lj = level[coo.row], level[coo.col]
        if (np.abs(li - lj) > 1).any():
            raise ValueError("the matrix couples unknowns more than one "
                             "level apart")
        self.perm = np.argsort(level, kind="stable")
        width = np.bincount(level)
        start = np.concatenate([[0], np.cumsum(width)])
        local = np.empty(n, dtype=np.int64)  # position within its level
        local[self.perm] = np.arange(n) - np.repeat(start[:-1], width)
        pi, pj = local[coo.row], local[coo.col]

        # two flat buffers, level by level: B_j is w_j by w_j + w_{j+1} and
        # starts as [D_j | -U_{j+1}]; G_j (j >= 1) is w_j by w_{j-1} and
        # starts as L_j.  The loop turns them into the factor in place.
        nxt = np.append(width[1:], 0)
        b_start = np.concatenate([[0], np.cumsum(width * (width + nxt))])
        g_start = np.concatenate([[0, 0], np.cumsum(width[1:] * width[:-1])])
        b = np.zeros(b_start[-1])
        g = np.zeros(g_start[-1])
        low = lj < li
        at = b_start[li] + pi * (width + nxt)[li] + pj + (lj - li) * width[li]
        np.add.at(b, at[~low], np.where(lj > li, -coo.data, coo.data)[~low])
        at = g_start[li] + pi * width[lj] + pj
        np.add.at(g, at[low], coo.data[low])

        self._v = v = np.empty(n)
        self._forward, self._backward = [], []
        for j, (w, wn) in enumerate(zip(width, nxt)):
            cur = v[start[j]:start[j + 1]]
            bj = b[b_start[j]:b_start[j + 1]].reshape(w, w + wn)
            if j:
                bj[:, :w] += update  # S_j = D_j - G_j U_j
            bj[:, :w] = np.linalg.inv(bj[:, :w])
            self._backward.append((bj, cur, v[start[j]:start[j + 1] + wn]))
            if wn:
                bj[:, w:] = bj[:, :w] @ bj[:, w:]
                gn = g[g_start[j + 1]:g_start[j + 2]].reshape(wn, w)
                prod = gn @ bj  # L_{j+1} B_j = [G_{j+1} | -G_{j+1} U_{j+1}]
                gn[...] = prod[:, :w]
                update = prod[:, w:]
                self._forward.append((gn, cur, v[start[j + 1]:start[j + 2]]))
        self._backward.reverse()

    def solve(self, r: np.ndarray) -> np.ndarray:
        """A^-1 r, to rounding, in a new array; ``r`` is left as it is."""
        v = np.take(r, self.perm, out=self._v)
        for g, prev, cur in self._forward:
            cur -= g.dot(prev)
        for b, cur, span in self._backward:
            cur[...] = b.dot(span)
        z = np.empty_like(v)
        z[self.perm] = v
        return z


def _level_blocks(A: sp.csr_matrix, tol: float) -> _LevelBlocks | None:
    """The level-block factor of A, or None when its blocks would hold more
    than ``_LEVEL_BLOCK_CAP`` entries (sum of squared level widths), when a
    Schur complement is singular, or when one probe solve misses a relative
    residual of ``tol / 10``: the blocks are not pivoted, so a matrix that
    is not SPD can break them down without any error."""
    level = _level_order(A)
    if np.sum(np.bincount(level) ** 2) > _LEVEL_BLOCK_CAP:
        return None
    try:
        blocks = _LevelBlocks(A, level)
    except np.linalg.LinAlgError:
        return None
    b = A @ np.random.default_rng(0).standard_normal(A.shape[0])
    miss = np.linalg.norm(b - A @ blocks.solve(b))
    if not miss <= 0.1 * tol * np.linalg.norm(b):
        return None
    return blocks


def _jacobi(A: sp.csr_matrix):
    """The Jacobi preconditioner r -> r / diag(A); a nonpositive diagonal
    entry counts as one, which keeps the preconditioner positive definite."""
    diag = A.diagonal()
    diag[diag <= 0.0] = 1.0

    def precond(r):
        return r / diag
    return precond


def _solve(A: sp.csr_matrix, b, tol: float, x0, sweep,
           history: SolutionHistory | None, precond, window: int):
    """Run ``sweep`` from the true residual, at most three passes.

    ``converged`` means ||b - A x|| <= tol ||b|| for the returned x.  Each
    pass starts from the true residual, so a recurrence that drifted from it
    is restarted; a pass that stalls (``broke``) or exhausts the budget of
    10 n iterations in all ends the solve.  ``sweep(A, x, r, precond,
    target, budget)`` updates x in place and returns ``(iterations,
    broke)``; ``precond`` defaults to Jacobi.  A non-empty ``history``
    replaces ``x0`` by its start, and a converged x joins it, in a window of
    ``window`` solutions, with the image A x that the final residual already
    needed; that product also gives the report's ``energy``.
    """
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError("right-hand side has wrong length")
    _real("tol", tol, positive=True)
    max_iter = 10 * n
    norm_b = float(np.linalg.norm(b))
    if not np.isfinite(norm_b):
        raise ValueError("right-hand side is not finite")
    if norm_b == 0.0:
        return np.zeros(n), SolveReport(True, 0, 0.0, 0.0, 0.0)
    target = tol * norm_b
    if precond is None:
        precond = _jacobi(A)
    if history is not None and history.count:
        x, ax = history.start(A, b)
    else:
        x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
        ax = A @ x
    res = start = float(np.linalg.norm(b - ax))
    if not math.isfinite(start):
        raise ValueError("start residual is not finite")
    total = 0
    broke = False
    for _ in range(3):
        if res <= target or broke or total >= max_iter:
            break
        iters, broke = sweep(A, x, b - ax, precond, target, max_iter - total)
        total += iters
        ax = A @ x
        res = float(np.linalg.norm(b - ax))
    converged = res <= target
    if history is not None and converged:
        history.add(A, x, ax, window)
    return x, SolveReport(converged, total, res, start, float(x @ ax))


def _cg_sweep(A, x, r, precond, target, budget):
    """Preconditioned CG recurrence; breaks on nonpositive curvature (the
    matrix is not SPD).  Updates x and r in place, with p and one product
    in work vectors made once per pass."""
    z = precond(r)
    p = z.copy()
    work = np.empty_like(r)
    rz = float(r @ z)
    it = 0
    while it < budget:
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            return it, True
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=work)
        r -= np.multiply(Ap, alpha, out=Ap)
        it += 1
        if math.sqrt(r.dot(r)) <= target:
            break
        z = precond(r)
        rz_new = float(r @ z)
        np.add(z, np.multiply(p, rz_new / rz, out=p), out=p)
        rz = rz_new
    return it, False


def _bicgstab_sweep(A, x, r, precond, target, budget):
    """Right-preconditioned BiCGStab recurrence; breaks when rho, omega or a
    denominator vanishes.  Updates x and r in place, with p and s in work
    vectors made once per pass."""
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    p = np.zeros_like(r)
    v = np.zeros_like(r)
    s = np.empty_like(r)
    it = 0
    while it < budget:
        rho_new = float(r_hat @ r)
        if rho_new == 0.0 or omega == 0.0:
            return it, True
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p -= np.multiply(v, omega, out=s)
        np.add(r, np.multiply(p, beta, out=p), out=p)
        ph = precond(p)
        v = A @ ph
        denom = float(r_hat @ v)
        if denom == 0.0:
            return it, True
        alpha = rho / denom
        np.subtract(r, np.multiply(v, alpha, out=s), out=s)
        it += 1
        if math.sqrt(s.dot(s)) <= target:
            x += np.multiply(ph, alpha, out=s)
            break
        sh = precond(s)
        t = A @ sh
        tt = float(t @ t)
        if tt == 0.0:
            return it, True
        omega = float(t @ s) / tt
        # r first: then t and s are free to hold the update of x
        np.subtract(s, np.multiply(t, omega, out=t), out=r)
        x += np.add(np.multiply(ph, alpha, out=t),
                    np.multiply(sh, omega, out=s), out=t)
        if math.sqrt(r.dot(r)) <= target:
            break
    return it, False


def cg_solve(A: sp.csr_matrix, b: np.ndarray, tol: float = 1e-12,
             x0: np.ndarray | None = None,
             history: SolutionHistory | None = None, precond=None):
    """Conjugate gradients for symmetric positive definite systems; returns
    ``(x, SolveReport)``.

    A direction of nonpositive curvature stops the solve; the report then
    says whether the iterate reached so far happens to meet the tolerance.
    ``history``, when given and not empty, supplies the start in place of
    ``x0``, and a converged solution is added to it; it holds up to 16
    solutions.  ``precond(r)`` approximates A^-1 r (SPD for CG); it is
    r / diag(A) when not given.  A non-finite right-hand side or start
    residual, or a ``tol`` that is not finite and > 0, raises
    ``ValueError``.  A finite ``tol`` below rounding is no bad input: the
    solve stops within its budget and reports ``converged=False``, which a
    step turns into :class:`~dcgm.schemes.StepError`.
    """
    return _solve(A, b, tol, x0, _cg_sweep, history, precond, _CG_WINDOW)


def bicgstab_solve(A: sp.csr_matrix, b: np.ndarray, tol: float = 1e-12,
                   x0: np.ndarray | None = None,
                   history: SolutionHistory | None = None, precond=None):
    """Stabilized biconjugate gradients for general square systems; same
    conventions as :func:`cg_solve`, but a history holds up to 32 solutions.
    Breakdown of the recurrences yields the iterate reached so far."""
    return _solve(A, b, tol, x0, _bicgstab_sweep, history, precond,
                  _BICGSTAB_WINDOW)
