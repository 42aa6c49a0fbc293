"""Time-stepping schemes for convection-diffusion on triangle meshes.

All schemes advance the implicit-diffusion problem

    (u^n - transported u^{n-1}) / dt = nu Laplacian(u^n)

With a steady velocity field and a fixed dt each scheme is one linear map,
``lhs u^n = rhs_mat u^{n-1}``, whose two sparse matrices a ``*_prepare``
function builds once.  Every step is then ``step(op, u_prev)`` and returns
the new field with its :class:`StepDiagnostics`.  The schemes differ in the
transport matrix ``rhs_mat``:

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
from dataclasses import dataclass

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
)
from .linalg import SolveReport, bicgstab_solve, cg_solve
from .mesh import TriMesh
from .quadrature import midedge_rule, rule_by_name

__all__ = [
    "SchemeConfig",
    "StepDiagnostics",
    "StepError",
    "CflWarning",
    "DcgmOperator",
    "dcgm_prepare",
    "dcgm_step",
    "DirichletOperator",
    "dcgm_dirichlet_prepare",
    "dcgm_dirichlet_step",
    "pcgm_step",
    "AdvectionSystem",
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
    second order (1).  ``nu`` must be strictly positive: the pure-advection
    limit is outside what these schemes are built for.
    """

    nu: float
    dt: float
    sigma: float = 1.0
    quadrature: str = "ninepoint"
    solver_tol: float = 1e-13
    solver_max_iter: int | None = None

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ValueError("nu must be > 0")
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
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
class DcgmOperator:
    """Characteristic step ``lhs u^n = rhs_mat u^{n-1}`` for a steady field.

    ``lhs`` is the SPD matrix mass + nu dt stiffness.  ``rhs_mat`` is the
    transport: the conservative forward-image scatter P_fwd^T W P_src when
    ``dual`` is set, the primal backward-image gather P_src^T W P_bwd
    otherwise.  ``traced`` keeps the located images both were built from.
    """

    mesh: TriMesh
    mass: sp.csr_matrix
    lhs: sp.csr_matrix
    rhs_mat: sp.csr_matrix
    traced: TracedPoints
    dual: bool
    projected_fraction: float
    solver_tol: float = 1e-13
    solver_max_iter: int | None = None


def _interpolation_matrix(mesh: TriMesh, tri: np.ndarray,
                          bary: np.ndarray) -> sp.csr_matrix:
    """Point values from vertex values: row q holds the barycentric weights
    ``bary[q]`` at the three vertices of triangle ``tri[q]``."""
    n = tri.shape[0]
    return sp.csr_matrix(
        (bary.ravel(), mesh.triangles[tri].ravel(), np.arange(0, 3 * n + 1, 3)),
        shape=(n, mesh.nv),
    )


def dcgm_prepare(mesh: TriMesh, field: VelocityField, config: SchemeConfig,
                 dual: bool = True,
                 stiffness: sp.csr_matrix | None = None) -> DcgmOperator:
    """Trace the quadrature nodes and build both matrices of the step once.

    ``stiffness`` replaces the constant-coefficient stiffness matrix (an
    anisotropic one, say); it is scaled by nu dt all the same.
    """
    rule = rule_by_name(config.quadrature)
    tp = build_traced_points(mesh, field, rule, config.dt, config.sigma)
    mass = assemble_mass(mesh)
    if stiffness is None:
        stiffness = assemble_stiffness(mesh)
    src = _interpolation_matrix(mesh, tp.src_tri, tp.src_bary)
    weights = sp.diags(tp.weights)
    if dual:
        fwd = _interpolation_matrix(mesh, tp.fwd_tri, tp.fwd_bary)
        rhs_mat = fwd.T @ weights @ src
        fraction = tp.fwd_projected_fraction
    else:
        bwd = _interpolation_matrix(mesh, tp.bwd_tri, tp.bwd_bary)
        rhs_mat = src.T @ weights @ bwd
        fraction = tp.bwd_projected_fraction
    return DcgmOperator(
        mesh=mesh,
        mass=mass,
        lhs=mass + (config.nu * config.dt) * stiffness,
        rhs_mat=rhs_mat.tocsr(),
        traced=tp,
        dual=dual,
        projected_fraction=fraction,
        solver_tol=config.solver_tol,
        solver_max_iter=config.solver_max_iter,
    )


def _advance(op, u_prev: FieldP1, solve, label: str, g=None):
    """Solve ``op.lhs x = op.rhs_mat @ u_prev`` warm-started from u_prev;
    returns the new field and its diagnostics.

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
    x, report = solve(op.lhs, rhs, tol=op.solver_tol,
                      max_iter=op.solver_max_iter, x0=x0)
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


def dcgm_step(op: DcgmOperator, u_prev: FieldP1):
    """One conservative characteristic step (forward-image scatter)."""
    if not op.dual:
        raise ValueError("dcgm_step needs a dual operator; use pcgm_step")
    return _advance(op, u_prev, cg_solve, "characteristic")


def pcgm_step(op: DcgmOperator, u_prev: FieldP1):
    """One primal characteristic step (backward gather; not conservative)."""
    if op.dual:
        raise ValueError("pcgm_step needs an operator prepared with dual=False")
    return _advance(op, u_prev, cg_solve, "primal characteristic")


# ----------------------------------------------------------------------
# Eulerian comparison schemes


def _velocity_at_midedges(mesh: TriMesh, field: VelocityField):
    rule = midedge_rule()
    pts = np.einsum("qi,tid->tqd", rule.points, mesh._tri_xy)  # (nt, 3, 2)
    ax, ay = field.value(pts[:, :, 0], pts[:, :, 1])
    shape = (mesh.nt, 3)
    ax = np.broadcast_to(np.asarray(ax, dtype=float), shape)
    ay = np.broadcast_to(np.asarray(ay, dtype=float), shape)
    return rule, ax, ay


def _advection_matrices(mesh: TriMesh, field: VelocityField):
    """Convection matrix C_ij = int (a.grad phi_j) phi_i and streamline
    matrix S_ij = int (a.grad phi_i)(a.grad phi_j), mid-edge quadrature."""
    rule, ax, ay = _velocity_at_midedges(mesh, field)
    g = basis_gradients(mesh)  # (nt, 3, 2)
    # a.grad(phi_j) at each quadrature node: (nt, q, j)
    adg = ax[:, :, None] * g[:, None, :, 0] + ay[:, :, None] * g[:, None, :, 1]
    w = rule.weights
    phi = rule.points  # phi_i at node q is points[q, i]
    local_c = np.einsum("q,qi,tqj->tij", w, phi, adg) * mesh.areas[:, None, None]
    local_s = np.einsum("q,tqi,tqj->tij", w, adg, adg) * mesh.areas[:, None, None]
    return assemble_local(mesh, local_c), assemble_local(mesh, local_s)


@dataclass(eq=False)
class AdvectionSystem:
    """Eulerian step ``lhs u^n = rhs_mat u^{n-1}``; no point is traced, so
    none is projected."""

    mesh: TriMesh
    lhs: sp.csr_matrix
    rhs_mat: sp.csr_matrix
    solver_tol: float
    solver_max_iter: int | None
    projected_fraction: float = 0.0


def supg_prepare(mesh: TriMesh, field: VelocityField,
                 config: SchemeConfig) -> AdvectionSystem:
    """Streamline-upwind system: test functions w + alpha a.grad w,
    alpha = 0.3.

    In time-step-scaled form the matrices are
        lhs = M + alpha C^T + dt (C + alpha S + nu K)
        rhs = M + alpha C^T
    """
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh)
    conv, stream = _advection_matrices(mesh, field)
    base = mass + _SUPG_ALPHA * conv.T
    lhs = base + config.dt * (conv + _SUPG_ALPHA * stream
                              + config.nu * stiffness)
    return AdvectionSystem(mesh, lhs, base, config.solver_tol,
                          config.solver_max_iter)


def centered_prepare(mesh: TriMesh, field: VelocityField,
                     config: SchemeConfig) -> AdvectionSystem:
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
    conv, _ = _advection_matrices(mesh, field)
    lhs = mass + config.dt * (conv + config.nu * stiffness)
    return AdvectionSystem(mesh, lhs, mass, config.solver_tol,
                          config.solver_max_iter)


def cfl_dt_guideline(mesh: TriMesh, nu: float) -> float:
    """Largest time step the centered scheme tolerates without upwinding."""
    return mesh.h_max**2 / (2.0 * nu)


def supg_step(op: AdvectionSystem, u_prev: FieldP1):
    """One implicit streamline-upwind step."""
    return _advance(op, u_prev, bicgstab_solve, "streamline-upwind")


def centered_step(op: AdvectionSystem, u_prev: FieldP1):
    """One implicit centered-convection step (no stabilization)."""
    return _advance(op, u_prev, bicgstab_solve, "centered")


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
class DirichletOperator:
    """Characteristic step with strongly imposed boundary values.

    The unknowns are the interior vertices: ``lhs`` is the interior block of
    the flux-corrected system matrix, ``rhs_mat`` the interior rows of the
    dual transport, and ``coupling`` the interior-by-boundary block that
    carries the imposed values into the right-hand side.
    """

    mesh: TriMesh
    lhs: sp.csr_matrix
    rhs_mat: sp.csr_matrix
    coupling: sp.csr_matrix
    interior: np.ndarray
    boundary: np.ndarray
    projected_fraction: float
    solver_tol: float
    solver_max_iter: int | None


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
        coupling=rows[:, boundary],
        interior=interior,
        boundary=boundary,
        projected_fraction=op.projected_fraction,
        solver_tol=config.solver_tol,
        solver_max_iter=config.solver_max_iter,
    )


def dcgm_dirichlet_step(op: DirichletOperator, u_prev: FieldP1, u_boundary):
    """One characteristic step with the boundary pinned to ``u_boundary``.

    ``u_boundary`` may be a scalar, a full vertex vector, or one value per
    entry of ``op.boundary``.
    """
    bnd = op.boundary
    g = np.zeros(op.mesh.nv)
    ub = np.asarray(u_boundary, dtype=float)
    if ub.ndim == 0:
        g[bnd] = float(ub)
    elif ub.shape == (op.mesh.nv,):
        g[bnd] = ub[bnd]
    elif ub.shape == bnd.shape:
        g[bnd] = ub
    else:
        raise ValueError("boundary data must be scalar, per-vertex, or "
                         "per-boundary-vertex")
    return _advance(op, u_prev, cg_solve, "constrained characteristic", g)
