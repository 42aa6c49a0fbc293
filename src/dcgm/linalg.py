"""Jacobi-preconditioned Krylov solvers on scipy CSR matrices.

The loops are written out here so the stopping rule is explicit and shared:
one driver owns validation, warm start, restarts and the report, and both
solvers report the true residual of the returned iterate, never the
recurrence residual alone.

A run that solves one matrix against a sequence of right-hand sides passes
a :class:`SolutionHistory`: each solve then starts from the combination of
the run's recent solutions whose residual is smallest (Fischer's projection,
CMAME 163, 1998), and each converged solution joins the history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["SolveReport", "SolutionHistory", "cg_solve", "bicgstab_solve"]

# solutions a history holds; when full it keeps the span of the newest half
_HISTORY_SIZE = 16
# a solution whose image keeps less than this share of its norm after
# orthogonalization against the held images adds nothing to their span
_HISTORY_DROP = 1e-12


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an iterative solve.

    ``residual`` is the Euclidean norm of b - A x for the returned x,
    recomputed from scratch, and ``iterations`` counts matrix applications
    of the main loop across restarts.  ``start_residual`` is the same norm
    for the first iterate: the warm start, or the projection onto a
    history's solutions.
    """

    converged: bool
    iterations: int
    residual: float
    start_residual: float


class SolutionHistory:
    """The recent solutions y_j of one matrix A, for starting the next solve.

    The images q_j = A y_j are kept orthonormal, so ``start(b)`` =
    sum_j (q_j . b) y_j is the combination of the held solutions with the
    smallest residual ||b - A x||.  The newest solution stays in the span,
    so the start is never worse than the newest solution itself.  ``R``
    records the raw images, A x_k = sum_j R[j, k] q_j, which lets a full
    window shrink to the span of its newest half without any matrix
    application.  A history serves a single matrix; it belongs to one run.
    """

    def __init__(self):
        self.matrix = None
        self.count = 0
        self.Y = self.Q = self.R = None

    def _check(self, A) -> None:
        if self.matrix is None:
            self.matrix = A
        elif A is not self.matrix:
            raise ValueError("a solution history serves one matrix; "
                             "this solve passed another")

    def start(self, A, b: np.ndarray) -> np.ndarray:
        """Start for ``A x = b``: the held combination nearest in residual."""
        self._check(A)
        k = self.count
        return (self.Q[:k] @ b) @ self.Y[:k]

    def add(self, A, x: np.ndarray, ax: np.ndarray) -> None:
        """Add the solution ``x`` with its image ``ax`` = A x.

        Classical Gram-Schmidt, applied twice, takes the held images out of
        ``ax``; a solution whose image nearly lies in their span is dropped.
        """
        self._check(A)
        if self.Y is None:
            n = x.shape[0]
            self.Y = np.empty((_HISTORY_SIZE, n))
            self.Q = np.empty((_HISTORY_SIZE, n))
            self.R = np.zeros((_HISTORY_SIZE, _HISTORY_SIZE))
        elif self.count == _HISTORY_SIZE:
            self._keep_newest(_HISTORY_SIZE // 2)
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


def _solve(A: sp.csr_matrix, b, tol: float, x0, sweep,
           history: SolutionHistory | None):
    """Run ``sweep`` from the true residual, at most three passes.

    ``converged`` means ||b - A x|| <= tol ||b|| for the returned x.  Each
    pass starts from the true residual, so a recurrence that drifted from it
    is restarted; a pass that stalls (``broke``) or exhausts the budget of
    10 n iterations in all ends the solve.  ``sweep(A, x, r, diag, target,
    budget)`` updates x in place and returns ``(iterations, broke)``.  A
    non-empty ``history`` replaces ``x0`` by its projected start, and a
    converged x joins it with the image A x that the final residual already
    needed.
    """
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError("right-hand side has wrong length")
    max_iter = 10 * n
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros(n), SolveReport(True, 0, 0.0, 0.0)
    target = tol * norm_b
    diag = A.diagonal()
    diag[diag <= 0.0] = 1.0  # keep the preconditioner positive definite
    if history is not None and history.count:
        x = history.start(A, b)
    else:
        x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    ax = A @ x
    res = start = float(np.linalg.norm(b - ax))
    total = 0
    broke = False
    for _ in range(3):
        if res <= target or broke or total >= max_iter:
            break
        iters, broke = sweep(A, x, b - ax, diag, target, max_iter - total)
        total += iters
        ax = A @ x
        res = float(np.linalg.norm(b - ax))
    converged = res <= target
    if history is not None and converged:
        history.add(A, x, ax)
    return x, SolveReport(converged, total, res, start)


def _cg_sweep(A, x, r, diag, target, budget):
    """Preconditioned CG recurrence; breaks on nonpositive curvature (the
    matrix is not SPD)."""
    z = r / diag
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
        r -= alpha * Ap
        it += 1
        if float(np.linalg.norm(r)) <= target:
            break
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return it, False


def _bicgstab_sweep(A, x, r, diag, target, budget):
    """Right-preconditioned BiCGStab recurrence; breaks when rho, omega or a
    denominator vanishes."""
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
        ph = p / diag
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
        sh = s / diag
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


def cg_solve(A: sp.csr_matrix, b: np.ndarray, tol: float = 1e-12,
             x0: np.ndarray | None = None,
             history: SolutionHistory | None = None):
    """Conjugate gradients for symmetric positive definite systems; returns
    ``(x, SolveReport)``.

    A direction of nonpositive curvature stops the solve; the report then
    says whether the iterate reached so far happens to meet the tolerance.
    ``history``, when given and not empty, supplies the start in place of
    ``x0``, and a converged solution is added to it.
    """
    return _solve(A, b, tol, x0, _cg_sweep, history)


def bicgstab_solve(A: sp.csr_matrix, b: np.ndarray, tol: float = 1e-12,
                   x0: np.ndarray | None = None,
                   history: SolutionHistory | None = None):
    """Stabilized biconjugate gradients for general square systems; same
    conventions as :func:`cg_solve`.  Breakdown of the recurrences yields
    the iterate reached so far."""
    return _solve(A, b, tol, x0, _bicgstab_sweep, history)
