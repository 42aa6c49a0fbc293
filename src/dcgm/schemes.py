"""Time-stepping schemes for convection-diffusion on triangle meshes.

All schemes advance the implicit-diffusion problem

    (u^n - transported u^{n-1}) / dt = nu Laplacian(u^n)

With a steady velocity field and a fixed dt each scheme is one linear map,
``lhs u^n = rhs_mat u^{n-1}``, whose two sparse matrices a ``*_prepare``
function builds once into a :class:`LinearStep` record or one extending it.
Every step is then ``step(op, u_prev, history=None)`` and returns the new
field with its :class:`StepDiagnostics`.  Without ``history`` a step is a
pure map whose solve starts from u_prev.  The run loop, ``_run_steps``,
passes one :class:`~dcgm.linalg.SolutionHistory` to every step of a run, so
each solve starts from the best combination of the run's recent solutions
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
  with velocity terms integrated by the mid-edge rule; centered is
  streamline-upwind with a streamline weight of 0.
"""

from __future__ import annotations

import math
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
    nu_dt_norm,
    stability_form,
)
from .linalg import (SolutionHistory, SolveReport, _jacobi, bicgstab_solve,
                     cg_solve)
from .mesh import TriMesh, _real
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
            _real(name, getattr(self, name), positive=True)
        if _real("sigma", self.sigma) not in (0.0, 1.0):
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
    """Per-step bookkeeping: mass, extrema, solver outcome, projection rate
    and the stability norm of the new field in the operator's ``form``."""

    mass: float
    min_value: float
    max_value: float
    solver: SolveReport
    projected_fraction: float
    norm: float


@dataclass(eq=False)
class LinearStep:
    """One step ``lhs u^n = rhs_mat u^{n-1}``, fixed at prepare time.

    ``form`` is the matrix of the run's stability norm, M + nu dt K (see
    :func:`~dcgm.fem.nu_dt_norm`), built by the prepare from what it
    assembles anyway.  ``projected_fraction`` is the share of traced points
    that left the domain and were projected back (0 for the Eulerian
    schemes, which trace none).  ``factor(r)``, when set, is an exact solve
    lhs^-1 r: each step starts from ``factor(rhs)`` and keeps no history,
    and the factor preconditions the Krylov pass that runs only when that
    start misses the tolerance.  Without a factor every solve is
    preconditioned with Jacobi, r / diag(lhs), with the diagonal taken once
    here.  ``lift``, when set, carries imposed boundary values into the
    right-hand side (see :func:`dcgm_dirichlet_prepare`).
    """

    mesh: TriMesh
    lhs: sp.csr_matrix
    rhs_mat: sp.csr_matrix
    form: sp.csr_matrix
    solver_tol: float
    projected_fraction: float
    factor: Callable | None = field(default=None, kw_only=True)
    lift: sp.csr_matrix | None = field(default=None, kw_only=True)

    def __post_init__(self):
        self._jacobi = _jacobi(self.lhs)


@dataclass(eq=False)
class DcgmOperator(LinearStep):
    """Characteristic step for a steady field.

    ``lhs`` is the SPD matrix mass + nu dt stiffness, and ``form`` is that
    same object; with the constant-coefficient stiffness it is
    ``stability_form(mesh, nu, dt)``.  ``rhs_mat`` is the
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
    # the matrix first: its assembly scratch then meets less live state
    if stiffness is None:
        lhs = stability_form(mesh, config.nu, config.dt)
    else:
        lhs = assemble_mass(mesh) + (config.nu * config.dt) * stiffness
    tp = build_traced_points(mesh, field, rule_by_name(config.quadrature),
                             config.dt, config.sigma, dual=dual)
    return DcgmOperator(
        mesh=mesh,
        lhs=lhs,
        rhs_mat=tp.transport,
        form=lhs,
        solver_tol=config.solver_tol,
        projected_fraction=float(np.mean(tp.fwd_projected if dual
                                         else tp.bwd_projected)),
        traced=tp,
        dual=dual,
    )


def _advance(op: LinearStep, u_prev: FieldP1, solve, label: str,
             history: SolutionHistory | None, g=None):
    """Solve ``op.lhs x = op.rhs_mat @ u_prev`` started from ``op.factor``'s
    solution when the operator has one, else warm-started from u_prev, or
    from ``history`` once it holds a solution; returns the new field and its
    diagnostics.  When ``form`` is ``lhs`` the norm is the square root of
    the solve's ``energy``, which reads the product its final residual made;
    otherwise it is :func:`~dcgm.fem.nu_dt_norm` of the new field.

    Imposed values ``g``, one per boundary vertex, enter the right-hand side
    through ``op.lift`` and are copied into the boundary entries of x.
    """
    if u_prev.mesh is not op.mesh:
        raise ValueError("field lives on a different mesh than the operator")
    if g is None and op.lift is not None:
        raise ValueError("an operator with a lift is stepped by dcgm_dirichlet_step")
    rhs = op.rhs_mat @ u_prev.coeffs
    if g is not None:
        rhs += op.lift @ g
    x0, precond = u_prev.coeffs, op._jacobi
    if op.factor is not None:
        x0, history, precond = op.factor(rhs), None, op.factor
    x, report = solve(op.lhs, rhs, tol=op.solver_tol, x0=x0, history=history,
                      precond=precond)
    if not report.converged:
        raise StepError(f"{label} step solve failed", report)
    if g is not None:
        x[op.mesh.is_boundary_vertex] = g
    u_new = FieldP1(op.mesh, x)
    if op.form is op.lhs:
        norm = math.sqrt(report.energy)
    else:
        norm = nu_dt_norm(u_new, op.form)
    diag = StepDiagnostics(
        mass=integral(u_new),
        min_value=float(x.min()),
        max_value=float(x.max()),
        solver=report,
        projected_fraction=op.projected_fraction,
        norm=norm,
    )
    return u_new, diag


def _run_steps(op: LinearStep, step, u: FieldP1, n_steps: int, boundary=None):
    """The run loop: ``n_steps`` calls of ``step`` on ``op`` from ``u``,
    yielding ``(n, u, diag)`` after step n.  The run's one history serves
    every solve; ``boundary(n)`` is the ``u_boundary`` of a Dirichlet step."""
    history = SolutionHistory()
    for n in range(1, n_steps + 1):
        extra = {} if boundary is None else {"u_boundary": boundary(n)}
        # by keyword: perfbench's tracer reads the operator from kwargs["op"]
        u, diag = step(op=op, u_prev=u, history=history, **extra)
        yield n, u, diag


def dcgm_step(op: DcgmOperator, u_prev: FieldP1,
              history: SolutionHistory | None = None):
    """One conservative characteristic step (forward-image scatter)."""
    if not (isinstance(op, DcgmOperator) and op.dual):
        raise ValueError("dcgm_step needs an operator from "
                         "dcgm_prepare(..., dual=True)")
    return _advance(op, u_prev, cg_solve, "characteristic", history)


def pcgm_step(op: DcgmOperator, u_prev: FieldP1,
              history: SolutionHistory | None = None):
    """One primal characteristic step (backward gather; not conservative)."""
    if not (isinstance(op, DcgmOperator) and not op.dual):
        raise ValueError("pcgm_step needs an operator from "
                         "dcgm_prepare(..., dual=False)")
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


def _eulerian_prepare(mesh: TriMesh, field: VelocityField,
                      config: SchemeConfig, alpha: float) -> LinearStep:
    """Galerkin system with test functions w + alpha a.grad w.

    In time-step-scaled form the matrices are
        lhs = M + alpha C^T + dt (C + alpha S + nu K)
        rhs = M + alpha C^T
    and the stability form is M + nu dt K.
    """
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh)
    rule, adg = _streamline_derivatives(mesh, field)
    conv = _convection_matrix(mesh, rule, adg)
    stream = _streamline_matrix(mesh, rule, adg)
    base = mass + alpha * conv.T
    lhs = base + config.dt * (conv + alpha * stream + config.nu * stiffness)
    form = mass + (config.nu * config.dt) * stiffness
    return LinearStep(mesh, lhs, base, form, config.solver_tol, 0.0)


def supg_prepare(mesh: TriMesh, field: VelocityField,
                 config: SchemeConfig) -> LinearStep:
    """Streamline-upwind system: the Eulerian system with alpha = 0.3."""
    return _eulerian_prepare(mesh, field, config, _SUPG_ALPHA)


def centered_prepare(mesh: TriMesh, field: VelocityField,
                     config: SchemeConfig) -> LinearStep:
    """Plain centered-convection system, the streamline-upwind one with
    alpha = 0: lhs = M + dt (C + nu K), rhs = M.

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
    return _eulerian_prepare(mesh, field, config, 0.0)


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
    edge, summed from one 2x2 block per boundary edge."""
    edges = mesh.boundary_edges
    a, b = mesh.vertices[edges.T]
    tang = b - a
    length = np.sqrt(tang[:, 0] ** 2 + tang[:, 1] ** 2)
    # domain lies left of the oriented edge, so the outward normal is the
    # clockwise rotation of the tangent
    normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / length[:, None]
    s = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
    pts = a[:, None, :] + s[None, :, None] * tang[:, None, :]  # (edge, node, xy)
    ax, ay = field.value(pts[..., 0], pts[..., 1])
    an = np.broadcast_to(np.asarray(ax, dtype=float) * normal[:, :1]
                         + np.asarray(ay, dtype=float) * normal[:, 1:],
                         pts.shape[:2])
    phi = np.stack([1.0 - s, s])  # (end, node)
    local = np.einsum("en,in,jn->eij", 0.5 * length[:, None] * an, phi, phi)
    rows, cols = np.repeat(edges, 2, axis=1), np.tile(edges, 2)  # (edge, 2i + j)
    return sp.csr_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(mesh.nv, mesh.nv))


def dcgm_dirichlet_prepare(mesh: TriMesh, field: VelocityField,
                           config: SchemeConfig) -> LinearStep:
    """Build the constrained characteristic system once.

    A = M + nu dt K - dt B carries the boundary flux B_ij = int (a.n) phi_i
    phi_j.  ``lhs`` is A with unit boundary rows and columns (still SPD),
    ``rhs_mat`` the dual transport with its boundary rows emptied, and
    ``lift`` minus A's interior-by-boundary block, the identity on the
    boundary rows.  Experimental: the plain scheme without this correction
    performs better in practice, and the discrepancy is left visible.
    """
    op = dcgm_prepare(mesh, field, config)
    matrix = op.lhs - config.dt * _boundary_flux_matrix(mesh, field)
    on = sp.diags(mesh.is_boundary_vertex.astype(float), format="csr")
    inside = sp.diags((~mesh.is_boundary_vertex).astype(float), format="csr")
    return LinearStep(
        mesh, inside @ matrix @ inside + on, inside @ op.rhs_mat, op.lhs,
        config.solver_tol, op.projected_fraction,
        lift=(on - inside @ matrix)[:, mesh.boundary_vertices])


def dcgm_dirichlet_step(op: LinearStep, u_prev: FieldP1, u_boundary,
                        history: SolutionHistory | None = None):
    """One characteristic step with the boundary pinned to ``u_boundary``: a
    scalar, or one value per vertex of ``mesh.boundary_vertices``, in order."""
    if not (isinstance(op, LinearStep) and op.lift is not None):
        raise ValueError("dcgm_dirichlet_step needs an operator from "
                         "dcgm_dirichlet_prepare")
    g = np.asarray(u_boundary, dtype=float)
    if g.ndim != 0 and g.shape != op.lift.shape[1:]:
        raise ValueError("boundary data must be a scalar or one value per "
                         "boundary vertex")
    return _advance(op, u_prev, cg_solve, "constrained characteristic",
                    history, np.broadcast_to(g, op.lift.shape[1:]))
