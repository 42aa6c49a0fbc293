"""Jacobi-preconditioned Krylov solvers on scipy CSR matrices.

The loops are written out here so the stopping rule is explicit and shared:
one driver owns validation, warm start, restarts and the report, and both
solvers report the true residual of the returned iterate, never the
recurrence residual alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["SolveReport", "cg_solve", "bicgstab_solve"]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an iterative solve.

    ``residual`` is the Euclidean norm of b - A x for the returned x,
    recomputed from scratch, and ``iterations`` counts matrix applications
    of the main loop across restarts.
    """

    converged: bool
    iterations: int
    residual: float


def _solve(A: sp.csr_matrix, b, tol: float, max_iter: int | None, x0, sweep):
    """Run ``sweep`` from the true residual, at most three passes.

    ``converged`` means ||b - A x|| <= tol ||b|| for the returned x.  Each
    pass starts from the true residual, so a recurrence that drifted from it
    is restarted; a pass that stalls (``broke``) or exhausts ``max_iter``
    ends the solve.  ``sweep(A, x, r, diag, target, budget)`` updates x in
    place and returns ``(iterations, broke)``.
    """
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError("right-hand side has wrong length")
    if max_iter is None:
        max_iter = 10 * n
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros(n), SolveReport(True, 0, 0.0)
    target = tol * norm_b
    diag = A.diagonal()
    diag[diag <= 0.0] = 1.0  # keep the preconditioner positive definite
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    total = 0
    for _ in range(3):
        r = b - A @ x
        res = float(np.linalg.norm(r))
        if res <= target:
            break
        iters, broke = sweep(A, x, r, diag, target, max_iter - total)
        total += iters
        res = float(np.linalg.norm(b - A @ x))
        if res <= target or broke or total >= max_iter:
            break
    return x, SolveReport(res <= target, total, res)


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
             max_iter: int | None = None, x0: np.ndarray | None = None):
    """Conjugate gradients for symmetric positive definite systems; returns
    ``(x, SolveReport)``.

    A direction of nonpositive curvature stops the solve; the report then
    says whether the iterate reached so far happens to meet the tolerance.
    """
    return _solve(A, b, tol, max_iter, x0, _cg_sweep)


def bicgstab_solve(A: sp.csr_matrix, b: np.ndarray, tol: float = 1e-12,
                   max_iter: int | None = None, x0: np.ndarray | None = None):
    """Stabilized biconjugate gradients for general square systems; same
    conventions as :func:`cg_solve`.  Breakdown of the recurrences yields
    the iterate reached so far."""
    return _solve(A, b, tol, max_iter, x0, _bicgstab_sweep)
