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
    "stability_form",
    "basis_gradients",
    "triangle_gradients",
    "integral",
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

    ``f`` may be vectorized over numpy arrays; a callable that rejects them
    with TypeError or ValueError is evaluated pointwise, and any other error
    propagates.  A value that is not finite is refused.
    """
    values = _call_on_points(f, mesh.vertices[:, 0], mesh.vertices[:, 1])
    if not np.isfinite(values).all():
        raise ValueError("f gives a value that is not finite at a vertex")
    return FieldP1(mesh, values)


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
    g = np.empty((mesh.nt, 3, 2))
    g[:, 1, 0], g[:, 1, 1] = mesh._r00, mesh._r01  # grad of l1
    g[:, 2, 0], g[:, 2, 1] = mesh._r10, mesh._r11  # grad of l2
    g[:, 0] = -g[:, 1] - g[:, 2]
    return g


def triangle_gradients(field: FieldP1) -> np.ndarray:
    """Gradient of the field on each triangle, shape (nt, 2)."""
    g = basis_gradients(field.mesh)
    c = field.coeffs[field.mesh.triangles]  # (nt, 3)
    return np.einsum("ti,tid->td", c, g)


_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0
# triangles per block of l2_error's quadrature; bounds its (block, nq)
# temporaries
_L2_BLOCK = 2048


def _ij_pairs(mesh: TriMesh):
    # the index type scipy would convert the pairs to
    small = mesh.nv <= np.iinfo(np.int32).max
    tris = mesh.triangles.astype(np.int32 if small else np.int64)
    rows = np.repeat(tris, 3, axis=1)  # v0 v0 v0 v1 v1 v1 v2 v2 v2
    cols = np.tile(tris, (1, 3))  # v0 v1 v2 v0 v1 v2 v0 v1 v2
    return rows, cols


def assemble_local(mesh: TriMesh, local: np.ndarray) -> sp.csr_matrix:
    """Sum per-triangle 3x3 blocks (shape (nt, 3, 3)) into a global matrix."""
    if local.shape != (mesh.nt, 3, 3):
        raise ValueError("expected one 3x3 block per triangle")
    rows, cols = _ij_pairs(mesh)
    return sp.csr_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(mesh.nv, mesh.nv))


def _mass_local(mesh: TriMesh) -> np.ndarray:
    return mesh.areas[:, None, None] * _MASS_PATTERN[None, :, :]


def _stiffness_local(mesh: TriMesh) -> np.ndarray:
    g = basis_gradients(mesh)
    dot = g[:, :, None, 0] * g[:, None, :, 0]
    dot += g[:, :, None, 1] * g[:, None, :, 1]
    dot *= mesh.areas[:, None, None]
    return dot


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix (exact element integrals)."""
    return assemble_local(mesh, _mass_local(mesh))


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """P1 stiffness matrix for the Laplacian (exact element integrals)."""
    return assemble_local(mesh, _stiffness_local(mesh))


def stability_form(mesh: TriMesh, nu: float, dt: float) -> sp.csr_matrix:
    """M + nu dt K, the matrix of the squared stability norm (see
    :func:`nu_dt_norm`) and the left side of the characteristic step; build
    it once per run, not per step."""
    local = _stiffness_local(mesh)
    local *= nu * dt
    for i, j in np.ndindex(3, 3):  # + _mass_local(mesh), one entry at a time
        local[:, i, j] += mesh.areas * _MASS_PATTERN[i, j]
    return assemble_local(mesh, local)


def integral(field: FieldP1) -> float:
    """Exact integral of the field over the meshed domain."""
    return float(field.mesh.vertex_mass @ field.coeffs)


def l2_norm(field: FieldP1) -> float:
    """Exact L2 norm; per triangle the square is |T|/12 (sum c_i^2 + (sum c_i)^2)."""
    c = field.coeffs[field.mesh.triangles]
    per_tri = (np.sum(c**2, axis=1) + np.sum(c, axis=1) ** 2) / 12.0
    return float(np.sqrt(np.sum(field.mesh.areas * per_tri)))


def h1_seminorm(field: FieldP1) -> float:
    """Exact H1 seminorm: gradients are constant per triangle."""
    g = triangle_gradients(field)
    return float(np.sqrt(np.sum(field.mesh.areas * np.sum(g**2, axis=1))))


def nu_dt_norm(field: FieldP1, form: sp.csr_matrix) -> float:
    """Stability norm of the diffusive step, sqrt(||u||^2 + nu dt |u|_1^2),
    as sqrt(u^T form u) with ``form = stability_form(mesh, nu, dt)``."""
    u = field.coeffs
    return float(np.sqrt(u @ (form @ u)))


def _call_on_points(f, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(f(x, y), dtype=float)
        if vals.shape == x.shape:
            return vals
    except (TypeError, ValueError):  # scalar-only callables reject arrays
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
    """Quadrature L2 distance between the field and a callable ``exact(x, y)``.

    The quadrature runs over blocks of ``_L2_BLOCK`` triangles, each call of
    ``exact`` on one block's points; the per-triangle sums are added once.
    """
    mesh = field.mesh
    per_tri = np.empty(mesh.nt)
    for t0 in range(0, mesh.nt, _L2_BLOCK):
        block = slice(t0, t0 + _L2_BLOCK)
        phys = rule.points @ mesh._tri_xy[block]  # (block, nq, 2)
        u = field.coeffs[mesh.triangles[block]] @ rule.points.T  # (block, nq)
        e = _call_on_points(exact, phys[:, :, 0], phys[:, :, 1])
        per_tri[block] = (u - e) ** 2 @ rule.weights
    return float(np.sqrt(np.sum(mesh.areas * per_tri)))
