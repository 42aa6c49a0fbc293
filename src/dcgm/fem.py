"""Piecewise-linear (P1) fields on triangle meshes and their assembly.

A field is one coefficient per vertex; on each triangle the function is the
linear interpolant of its three corner values.  All integrals below are
closed-form in the coefficients, so norms and the mass/stiffness matrices
are exact, not quadrature approximations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh
from .quadrature import QuadratureRule

__all__ = [
    "FieldP1",
    "interpolate",
    "evaluate",
    "assemble_local",
    "assemble_mass",
    "assemble_stiffness",
    "basis_gradients",
    "triangle_gradients",
    "integral",
    "min_coeff",
    "max_coeff",
    "l2_norm",
    "h1_seminorm",
    "nu_dt_norm",
    "l2_error",
    "write_field_csv",
]


@dataclass(eq=False)
class FieldP1:
    """Scalar P1 finite element function: one coefficient per mesh vertex."""

    mesh: TriMesh
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.mesh.nv,):
            raise ValueError("need one coefficient per vertex")

    def copy(self) -> "FieldP1":
        return FieldP1(self.mesh, self.coeffs.copy())


def interpolate(mesh: TriMesh, f) -> FieldP1:
    """Vertex interpolant of ``f(x, y)``.

    ``f`` may be vectorized over numpy arrays; scalar-only callables are
    evaluated pointwise.
    """
    x = mesh.vertices[:, 0]
    y = mesh.vertices[:, 1]
    try:
        vals = np.asarray(f(x, y), dtype=float)
        if vals.shape != x.shape:
            raise ValueError
    except Exception:
        vals = np.array([float(f(float(a), float(b))) for a, b in mesh.vertices])
    return FieldP1(mesh, vals)


def evaluate(field: FieldP1, loc) -> float:
    """Value of the field at a located point.

    ``loc`` is the (triangle, barycentric) pair produced by point location;
    passing None (a point outside the mesh) raises ValueError.
    """
    if loc is None:
        raise ValueError("cannot evaluate at a point outside the mesh")
    tri, lam = loc
    verts = field.mesh.triangles[int(tri)]
    return float(field.coeffs[verts] @ np.asarray(lam, dtype=float))


def basis_gradients(mesh: TriMesh) -> np.ndarray:
    """Gradients of the three barycentric basis functions per triangle.

    Returns shape (nt, 3, 2); constant on each triangle, and the three rows
    sum to zero.
    """
    rows = mesh._bary_rows  # grad of l1 and l2
    g = np.empty((mesh.nt, 3, 2))
    g[:, 1] = rows[:, 0]
    g[:, 2] = rows[:, 1]
    g[:, 0] = -rows[:, 0] - rows[:, 1]
    return g


def triangle_gradients(field: FieldP1) -> np.ndarray:
    """Gradient of the field on each triangle, shape (nt, 2)."""
    g = basis_gradients(field.mesh)
    c = field.coeffs[field.mesh.triangles]  # (nt, 3)
    return np.einsum("ti,tid->td", c, g)


_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _ij_pairs(tris: np.ndarray):
    rows = np.repeat(tris, 3, axis=1)  # v0 v0 v0 v1 v1 v1 v2 v2 v2
    cols = np.tile(tris, (1, 3))  # v0 v1 v2 v0 v1 v2 v0 v1 v2
    return rows, cols


def assemble_local(mesh: TriMesh, local: np.ndarray) -> sp.csr_matrix:
    """Sum per-triangle 3x3 blocks (shape (nt, 3, 3)) into a global matrix."""
    if local.shape != (mesh.nt, 3, 3):
        raise ValueError("expected one 3x3 block per triangle")
    rows, cols = _ij_pairs(mesh.triangles)
    return sp.csr_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(mesh.nv, mesh.nv))


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix (exact element integrals)."""
    local = mesh.areas[:, None, None] * _MASS_PATTERN[None, :, :]
    return assemble_local(mesh, local)


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """P1 stiffness matrix for the Laplacian (exact element integrals)."""
    g = basis_gradients(mesh)
    local = np.einsum("tid,tjd->tij", g, g) * mesh.areas[:, None, None]
    return assemble_local(mesh, local)


def integral(field: FieldP1) -> float:
    """Exact integral of the field over the meshed domain."""
    c = field.coeffs[field.mesh.triangles]
    return float(np.sum(field.mesh.areas * c.mean(axis=1)))


def min_coeff(field: FieldP1) -> float:
    return float(field.coeffs.min())


def max_coeff(field: FieldP1) -> float:
    return float(field.coeffs.max())


def l2_norm(field: FieldP1) -> float:
    """Exact L2 norm; per triangle the square is |T|/12 (sum c_i^2 + (sum c_i)^2)."""
    c = field.coeffs[field.mesh.triangles]
    per_tri = (np.sum(c**2, axis=1) + np.sum(c, axis=1) ** 2) / 12.0
    return float(np.sqrt(np.sum(field.mesh.areas * per_tri)))


def h1_seminorm(field: FieldP1) -> float:
    """Exact H1 seminorm: gradients are constant per triangle."""
    g = triangle_gradients(field)
    return float(np.sqrt(np.sum(field.mesh.areas * np.sum(g**2, axis=1))))


def nu_dt_norm(field: FieldP1, nu: float, dt: float) -> float:
    """Stability norm of the diffusive step: sqrt(||u||^2 + nu dt |u|_1^2)."""
    return float(np.sqrt(l2_norm(field) ** 2 + nu * dt * h1_seminorm(field) ** 2))


def _call_on_points(f, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(f(x, y), dtype=float)
        if vals.shape == x.shape:
            return vals
    except Exception:
        pass
    flat = np.array(
        [float(f(float(a), float(b))) for a, b in zip(x.ravel(), y.ravel())]
    )
    return flat.reshape(x.shape)


def write_field_csv(field: FieldP1, path) -> None:
    """Dump the field as CSV rows ``vertex_index,x,y,value``."""
    lines = ["vertex_index,x,y,value"]
    for i, ((x, y), v) in enumerate(zip(field.mesh.vertices, field.coeffs)):
        lines.append(f"{i},{x:.17g},{y:.17g},{v:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def l2_error(field: FieldP1, exact, rule: QuadratureRule) -> float:
    """Quadrature L2 distance between the field and a callable ``exact(x, y)``."""
    mesh = field.mesh
    phys = np.einsum("qi,tid->tqd", rule.points, mesh._tri_xy)  # (nt, nq, 2)
    u = field.coeffs[mesh.triangles] @ rule.points.T  # (nt, nq)
    e = _call_on_points(exact, phys[:, :, 0], phys[:, :, 1])
    per_tri = (u - e) ** 2 @ rule.weights
    return float(np.sqrt(np.sum(mesh.areas * per_tri)))
