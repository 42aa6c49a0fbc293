"""Time-stepping schemes for convection-diffusion on triangle meshes.

All schemes advance the implicit-diffusion problem

    (u^n - transported u^{n-1}) / dt = nu Laplacian(u^n)

With a steady velocity field and a fixed dt each scheme is one linear map,
``lhs u^n = rhs_mat u^{n-1}``, whose two sparse matrices a ``*_prepare``
function builds once into a :class:`LinearStep` record or one extending it.
Every step is then ``step(op, u_prev, history=None)`` and returns the new
field with its :class:`StepDiagnostics`.  Without ``history`` a step is a
pure map whose solve starts from u_prev; a run loop that creates one
:class:`~dcgm.linalg.SolutionHistory` and passes it to each of its steps
starts every solve from the best combination of the run's recent solutions
instead, which saves most of the Krylov iterations.  An operator whose
``factor`` is an exact solve with ``lhs`` (``heston_run`` sets one) needs
no history: each solve starts from the factor's solution, which meets the
tolerance with 0 iterations.  The schemes differ in the transport matrix
``rhs_mat``:

* dual characteristic scheme: test functions are pushed forward along the
  flow, rhs_mat = P_fwd^T W P_src.  Row q of P_src holds the barycentric
  weights of quadrature node q in its own triangle, row q of P_fwd those of
  its forward image, and W is diagonal with the node weights.  The clamped
  weights of each image sum to one, so the column sums of rhs_mat equal
  those of the mass matrix and total mass is conserved to solver tolerance.
* primal characteristic scheme: the previous solution is evaluated at the
  backward image of each quadrature node, rhs_mat = P_src^T W P_bwd
  (accurate, not conservative).
* streamline-upwind and centered Galerkin: Eulerian schemes, assembled here
  with velocity terms integrated by the mid-edge rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .characteristics import TracedPoints, VelocityField, build_traced_points
from .fem import (
    FieldP1,
    assemble_local,
    assemble_mass,
    assemble_stiffness,
    basis_gradients,
    integral,
    stability_form,
)
from .linalg import (SolutionHistory, SolveReport, _jacobi, bicgstab_solve,
                     cg_solve)
from .mesh import TriMesh
from .quadrature import midedge_rule, rule_by_name

__all__ = [
    "SchemeConfig",
    "StepDiagnostics",
    "StepError",
    "CflWarning",
    "LinearStep",
    "DcgmOperator",
    "dcgm_prepare",
    "dcgm_step",
    "DirichletOperator",
    "dcgm_dirichlet_prepare",
    "dcgm_dirichlet_step",
    "pcgm_step",
    "supg_prepare",
    "supg_step",
    "centered_prepare",
    "centered_step",
    "cfl_dt_guideline",
]

# streamline-upwind weight alpha of the test functions w + alpha a.grad w
_SUPG_ALPHA = 0.3


@dataclass(frozen=True)
class SchemeConfig:
    """Scalar parameters shared by the schemes.

    ``sigma`` switches the characteristic tracer between first order (0) and
    second order (1).  ``nu``, ``dt`` and ``solver_tol`` must be finite and
    strictly positive; nu = 0, the pure-advection limit, is outside what
    these schemes are built for.
    """

    nu: float
    dt: float
    sigma: float = 1.0
    quadrature: str = "ninepoint"
    solver_tol: float = 1e-13

    def __post_init__(self):
        for name in ("nu", "dt", "solver_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0")
        if self.sigma not in (0, 1):
            raise ValueError("sigma must be 0 or 1")
        rule_by_name(self.quadrature)  # fail at construction, not mid-run


class StepError(RuntimeError):
    """A linear solve inside a step did not converge."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(f"{message} (iterations={report.iterations}, "
                         f"residual={report.residual:.3e})")
        self.report = report


class CflWarning(UserWarning):
    """Time step exceeds the accuracy guideline of the centered scheme."""


@dataclass(eq=False)
class StepDiagnostics:
    """Per-step bookkeeping: mass, extrema, solver outcome, projection rate."""

    mass: float
    min_value: float
    max_value: float
    solver: SolveReport
    projected_fraction: float

    def csv_row(self, step: int) -> str:
        return (
            f"{step},{self.mass:.17g},{self.min_value:.17g},"
            f"{self.max_value:.17g},{self.solver.iterations},"
            f"{self.projected_fraction:.17g}"
        )

    @staticmethod
    def csv_header() -> str:
        return "step,mass,min,max,solver_iters,projected_fraction"


@dataclass(eq=False)
class LinearStep:
    """One step ``lhs u^n = rhs_mat u^{n-1}``, fixed at prepare time.

    ``projected_fraction`` is the share of traced points that left the
    domain and were projected back (0 for the Eulerian schemes, which trace
    none).  ``factor(r)``, when set, is an exact solve lhs^-1 r: each step
    starts from ``factor(rhs)`` and keeps no history, and the factor
    preconditions the Krylov pass that runs only when that start misses the
    tolerance.  Without a factor every solve is preconditioned with Jacobi,
    r / diag(lhs), with the diagonal taken once here.
    """

    mesh: TriMesh
    lhs: sp.csr_matrix
    rhs_mat: sp.csr_matrix
    solver_tol: float
    projected_fraction: float
    factor: Callable | None = field(default=None, kw_only=True)

    def __post_init__(self):
        self._jacobi = _jacobi(self.lhs)


@dataclass(eq=False)
class DcgmOperator(LinearStep):
    """Characteristic step for a steady field.

    ``lhs`` is the SPD matrix mass + nu dt stiffness; with the
    constant-coefficient stiffness it is ``stability_form(mesh, nu, dt)``,
    the matrix of the run's stability norm too.  ``rhs_mat`` is the
    transport: the conservative forward-image scatter P_fwd^T W P_src when
    ``dual`` is set, the primal backward-image gather P_src^T W P_bwd
    otherwise.  ``traced`` is the record the transport came from: the point
    count, the flags of the images that left the mesh and, as
    ``traced.transport``, ``rhs_mat`` itself; no per-point array outlives
    the prepare.
    """

    traced: TracedPoints
    dual: bool


def dcgm_prepare(mesh: TriMesh, field: VelocityField, config: SchemeConfig,
                 dual: bool = True,
                 stiffness: sp.csr_matrix | None = None) -> DcgmOperator:
    """Trace the quadrature nodes and build both matrices of the step once.

    ``stiffness`` replaces the constant-coefficient stiffness matrix (an
    anisotropic one, say); it is scaled by nu dt all the same.
    """
    rule = rule_by_name(config.quadrature)
    tp = build_traced_points(mesh, field, rule, config.dt, config.sigma,
                             dual=dual)
    if stiffness is None:
        lhs = stability_form(mesh, config.nu, config.dt)
    else:
        lhs = assemble_mass(mesh) + (config.nu * config.dt) * stiffness
    return DcgmOperator(
        mesh=mesh,
        lhs=lhs,
        rhs_mat=tp.transport,
        solver_tol=config.solver_tol,
        projected_fraction=(tp.fwd_projected_fraction if dual
                            else tp.bwd_projected_fraction),
        traced=tp,
        dual=dual,
    )


def _advance(op: LinearStep, u_prev: FieldP1, solve, label: str,
             history: SolutionHistory | None, g=None):
    """Solve ``op.lhs x = op.rhs_mat @ u_prev`` started from ``op.factor``'s
    solution when the operator has one, else warm-started from u_prev, or
    from ``history`` once it holds a solution; returns the new field and its
    diagnostics.

    With imposed values ``g`` (a vertex vector; Dirichlet operators only) the
    unknowns are ``op.interior``: ``op.coupling`` moves g to the right-hand
    side and g fills the boundary entries of the result.
    """
    if u_prev.mesh is not op.mesh:
        raise ValueError("field lives on a different mesh than the operator")
    rhs = op.rhs_mat @ u_prev.coeffs
    x0 = u_prev.coeffs
    if g is not None:
        rhs = rhs - op.coupling @ g[op.boundary]
        x0 = x0[op.interior]
    precond = op._jacobi
    if op.factor is not None:
        x0, history, precond = op.factor(rhs), None, op.factor
    x, report = solve(op.lhs, rhs, tol=op.solver_tol, x0=x0, history=history,
                      precond=precond)
    if not report.converged:
        raise StepError(f"{label} step solve failed", report)
    if g is not None:
        full = g.copy()
        full[op.interior] = x
        x = full
    u_new = FieldP1(op.mesh, x)
    diag = StepDiagnostics(
        mass=integral(u_new),
        min_value=float(x.min()),
        max_value=float(x.max()),
        solver=report,
        projected_fraction=op.projected_fraction,
    )
    return u_new, diag


def dcgm_step(op: DcgmOperator, u_prev: FieldP1,
              history: SolutionHistory | None = None):
    """One conservative characteristic step (forward-image scatter)."""
    if not op.dual:
        raise ValueError("dcgm_step needs a dual operator; use pcgm_step")
    return _advance(op, u_prev, cg_solve, "characteristic", history)


def pcgm_step(op: DcgmOperator, u_prev: FieldP1,
              history: SolutionHistory | None = None):
    """One primal characteristic step (backward gather; not conservative)."""
    if op.dual:
        raise ValueError("pcgm_step needs an operator prepared with dual=False")
    return _advance(op, u_prev, cg_solve, "primal characteristic", history)


# ----------------------------------------------------------------------
# Eulerian comparison schemes


def _streamline_derivatives(mesh: TriMesh, field: VelocityField):
    """The mid-edge rule and a.grad(phi_j) at its nodes, shape (nt, q, j)."""
    rule = midedge_rule()
    pts = rule.points @ mesh._tri_xy  # (nt, 3, 2)
    ax, ay = field.value(pts[:, :, 0], pts[:, :, 1])
    shape = (mesh.nt, 3)
    ax = np.broadcast_to(np.asarray(ax, dtype=float), shape)
    ay = np.broadcast_to(np.asarray(ay, dtype=float), shape)
    g = basis_gradients(mesh)  # (nt, 3, 2)
    adg = ax[:, :, None] * g[:, None, :, 0] + ay[:, :, None] * g[:, None, :, 1]
    return rule, adg


def _convection_matrix(mesh: TriMesh, rule, adg: np.ndarray) -> sp.csr_matrix:
    """C_ij = int (a.grad phi_j) phi_i; phi_i at node q is rule.points[q, i]."""
    weighted_phi = rule.weights[:, None] * rule.points  # (q, i)
    return assemble_local(mesh, (weighted_phi.T @ adg) * mesh.areas[:, None, None])


def _streamline_matrix(mesh: TriMesh, rule, adg: np.ndarray) -> sp.csr_matrix:
    """S_ij = int (a.grad phi_i)(a.grad phi_j)."""
    local = adg.transpose(0, 2, 1) @ (rule.weights[:, None] * adg)
    return assemble_local(mesh, local * mesh.areas[:, None, None])


def supg_prepare(mesh: TriMesh, field: VelocityField,
                 config: SchemeConfig) -> LinearStep:
    """Streamline-upwind system: test functions w + alpha a.grad w,
    alpha = 0.3.

    In time-step-scaled form the matrices are
        lhs = M + alpha C^T + dt (C + alpha S + nu K)
        rhs = M + alpha C^T
    """
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh)
    rule, adg = _streamline_derivatives(mesh, field)
    conv = _convection_matrix(mesh, rule, adg)
    stream = _streamline_matrix(mesh, rule, adg)
    base = mass + _SUPG_ALPHA * conv.T
    lhs = base + config.dt * (conv + _SUPG_ALPHA * stream
                              + config.nu * stiffness)
    return LinearStep(mesh, lhs, base, config.solver_tol, 0.0)


def centered_prepare(mesh: TriMesh, field: VelocityField,
                     config: SchemeConfig) -> LinearStep:
    """Plain centered-convection system: lhs = M + dt (C + nu K), rhs = M.

    Warns when dt exceeds the accuracy guideline h^2 / (2 nu): the implicit
    step stays solvable but the convective error dominates, which is why the
    comparison runs take ten times more steps with this scheme.
    """
    guideline = cfl_dt_guideline(mesh, config.nu)
    if config.dt > guideline:
        warnings.warn(
            f"time step {config.dt:.3g} exceeds the centered-scheme guideline "
            f"h^2/(2 nu) = {guideline:.3g}; expect heavy phase error",
            CflWarning,
            stacklevel=2,
        )
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh)
    conv = _convection_matrix(mesh, *_streamline_derivatives(mesh, field))
    lhs = mass + config.dt * (conv + config.nu * stiffness)
    return LinearStep(mesh, lhs, mass, config.solver_tol, 0.0)


def cfl_dt_guideline(mesh: TriMesh, nu: float) -> float:
    """Largest time step the centered scheme tolerates without upwinding."""
    return mesh.h_max**2 / (2.0 * nu)


def supg_step(op: LinearStep, u_prev: FieldP1,
              history: SolutionHistory | None = None):
    """One implicit streamline-upwind step."""
    return _advance(op, u_prev, bicgstab_solve, "streamline-upwind", history)


def centered_step(op: LinearStep, u_prev: FieldP1,
                  history: SolutionHistory | None = None):
    """One implicit centered-convection step (no stabilization)."""
    return _advance(op, u_prev, bicgstab_solve, "centered", history)


# ----------------------------------------------------------------------
# Dirichlet variant (experimental)


def _boundary_flux_matrix(mesh: TriMesh, field: VelocityField) -> sp.csr_matrix:
    """B_ij = int over the boundary of (a.n) phi_i phi_j, 2-point Gauss per
    edge.  Only boundary-vertex pairs receive entries."""
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    tang = b - a
    length = np.sqrt(tang[:, 0] ** 2 + tang[:, 1] ** 2)
    # domain lies left of the oriented edge, so the outward normal is the
    # clockwise rotation of the tangent
    normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / length[:, None]
    s_nodes = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
    rows, cols, vals = [], [], []
    for s in s_nodes:
        pts = a + s * tang
        ax, ay = field.value(pts[:, 0], pts[:, 1])
        an = (np.broadcast_to(np.asarray(ax, dtype=float), length.shape) * normal[:, 0]
              + np.broadcast_to(np.asarray(ay, dtype=float), length.shape) * normal[:, 1])
        phi = (1.0 - s, s)
        factor = 0.5 * length * an
        for li, pi in enumerate(phi):
            for lj, pj in enumerate(phi):
                rows.append(mesh.boundary_edges[:, li])
                cols.append(mesh.boundary_edges[:, lj])
                vals.append(factor * pi * pj)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.nv, mesh.nv),
    )


@dataclass(eq=False)
class DirichletOperator(LinearStep):
    """Characteristic step with strongly imposed boundary values.

    The unknowns are the interior vertices: ``lhs`` is the interior block of
    the flux-corrected system matrix, ``rhs_mat`` the interior rows of the
    dual transport, and ``coupling`` the interior-by-boundary block that
    carries the imposed values into the right-hand side.
    """

    coupling: sp.csr_matrix
    interior: np.ndarray
    boundary: np.ndarray


def dcgm_dirichlet_prepare(mesh: TriMesh, field: VelocityField,
                           config: SchemeConfig) -> DirichletOperator:
    """Build the constrained characteristic system once.

    The system matrix receives the boundary correction -dt B with
    B_ij = int (a.n) phi_i phi_j over the boundary, then boundary rows are
    constrained to the supplied values and the interior block (still SPD) is
    solved.  Experimental: the plain scheme without this correction performs
    better in practice, and the discrepancy is left visible.
    """
    op = dcgm_prepare(mesh, field, config)
    matrix = op.lhs - config.dt * _boundary_flux_matrix(mesh, field)
    interior = mesh.interior_vertices
    boundary = mesh.boundary_vertices
    rows = matrix[interior]
    return DirichletOperator(
        mesh=mesh,
        lhs=rows[:, interior],
        rhs_mat=op.rhs_mat[interior],
        solver_tol=config.solver_tol,
        projected_fraction=op.projected_fraction,
        coupling=rows[:, boundary],
        interior=interior,
        boundary=boundary,
    )


def dcgm_dirichlet_step(op: DirichletOperator, u_prev: FieldP1, u_boundary,
                        history: SolutionHistory | None = None):
    """One characteristic step with the boundary pinned to ``u_boundary``:
    a scalar, or one value per entry of ``op.boundary``.
    """
    ub = np.asarray(u_boundary, dtype=float)
    if ub.ndim != 0 and ub.shape != op.boundary.shape:
        raise ValueError("boundary data must be a scalar or one value per "
                         "boundary vertex")
    g = np.zeros(op.mesh.nv)
    g[op.boundary] = ub
    return _advance(op, u_prev, cg_solve, "constrained characteristic",
                    history, g)
