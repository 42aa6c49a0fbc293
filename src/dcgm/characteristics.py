"""Velocity fields and characteristic tracing.

The schemes follow trajectories of dx/dt = a(x) over one time step, either
forward or backward.  With the order switch sigma = 1 the update includes the
curvature correction (dt^2/2) (a . grad) a evaluated at the starting point:

    forward:   x + dt a(x) + sigma (dt^2/2) (a . grad) a (x)
    backward:  x - dt a(x) + sigma (dt^2/2) (a . grad) a (x)

Both directions keep the same sign on the quadratic term because it is the
second derivative of the trajectory; for the rigid rotation this makes a
traced point stay on its circle up to O(dt^4).

:func:`build_traced_points` traces every quadrature node both ways and
locates each image with one walk, which also flags the images that left the
mesh.  A scheme reads one direction only: the dual scheme the forward
images, the primal scheme the backward ones.  So the outside images of a
direction are projected to the boundary and located again only when
:meth:`TracedPoints.located` first reads that direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mesh import TriMesh, locate_point, project_to_domain
from .quadrature import QuadratureRule

# points traced at a time; bounds the (m, 2, 2) Jacobian and its temporaries
_TRACE_BLOCK = 8192

__all__ = [
    "VelocityField",
    "rotation_field",
    "uniform_field",
    "trace_forward",
    "trace_backward",
    "TracedPoints",
    "build_traced_points",
]


@dataclass(eq=False)
class VelocityField:
    """Steady planar velocity field with optional analytic Jacobian.

    ``value(x, y)`` maps coordinate arrays to the pair (a_x, a_y).
    ``jacobian(x, y)`` returns an array of shape (..., 2, 2) with the
    convention J[..., i, j] = d a_j / d x_i, so (a . grad) a is the
    row-vector product a J.  A field without a Jacobian is traced first
    order regardless of sigma.
    """

    value: Callable
    jacobian: Callable | None = None


def rotation_field() -> VelocityField:
    """Rigid rotation a(x, y) = (-y, x): solenoidal and tangent to circles
    centered at the origin."""

    def value(x, y):
        return -np.asarray(y, dtype=float), np.asarray(x, dtype=float)

    def jacobian(x, y):
        x = np.asarray(x, dtype=float)
        j = np.zeros(x.shape + (2, 2))
        j[..., 0, 1] = 1.0
        j[..., 1, 0] = -1.0
        return j

    return VelocityField(value=value, jacobian=jacobian)


def uniform_field(ax: float, ay: float) -> VelocityField:
    """Constant translation velocity (exactly traced for any sigma)."""

    def value(x, y):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape, ax), np.full(x.shape, ay)

    def jacobian(x, y):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (2, 2))

    return VelocityField(value=value, jacobian=jacobian)


def _trace(field: VelocityField, x, dt: float, sigma: float, direction: float):
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    out = np.empty_like(pts)
    for lo in range(0, pts.shape[0], _TRACE_BLOCK):
        block = slice(lo, lo + _TRACE_BLOCK)
        out[block] = _trace_block(field, pts[block], dt, sigma, direction)
    return out[0] if scalar else out


def _trace_block(field: VelocityField, pts: np.ndarray, dt: float,
                 sigma: float, direction: float) -> np.ndarray:
    """:func:`_trace` on a batch ``pts`` (m, 2)."""
    ax, ay = field.value(pts[:, 0], pts[:, 1])
    a = np.column_stack(
        [
            np.broadcast_to(np.asarray(ax, dtype=float), (pts.shape[0],)),
            np.broadcast_to(np.asarray(ay, dtype=float), (pts.shape[0],)),
        ]
    )
    out = pts + (direction * dt) * a
    if sigma != 0.0 and field.jacobian is not None:
        jac = np.broadcast_to(
            np.asarray(field.jacobian(pts[:, 0], pts[:, 1]), dtype=float),
            (pts.shape[0], 2, 2),
        )
        curve = np.einsum("mi,mij->mj", a, jac)
        out = out + (0.5 * sigma * dt * dt) * curve
    return out


def trace_forward(field: VelocityField, x, dt: float, sigma: float = 1.0):
    """Position after following the field for time ``dt`` from ``x``.

    Accepts one point (shape (2,)) or a batch (m, 2); returns the same shape.
    """
    return _trace(field, x, dt, sigma, +1.0)


def trace_backward(field: VelocityField, x, dt: float, sigma: float = 1.0):
    """Position ``dt`` ago under the field, second order when sigma = 1."""
    return _trace(field, x, dt, sigma, -1.0)


@dataclass(eq=False)
class TracedPoints:
    """Quadrature nodes with their traced forward and backward images.

    One record per (triangle, quadrature node): ``weights`` holds the node
    weight times the triangle area, so the weights sum to the domain area.
    Both directions are traced and walked once when the record is built;
    ``*_projected`` flags the images that left the mesh.  :meth:`located`
    gives one direction's triangles and barycentric coordinates: on its
    first call for that direction the images outside are pulled back by
    :func:`project_to_domain` and located again, and the result is kept.  A
    scheme reads one direction, so the other one's outside images are never
    projected.  Barycentric arrays are clamped to [0, 1] and renormalized to
    sum exactly to one, which is what makes the scatter of the dual scheme
    conserve mass.
    """

    mesh: TriMesh
    src_tri: np.ndarray
    src_bary: np.ndarray
    weights: np.ndarray
    fwd_projected: np.ndarray
    bwd_projected: np.ndarray
    # "fwd"/"bwd" -> (tri, bary) of the first walk, tri = -1 outside the mesh
    _walked: dict = field(repr=False)
    # "fwd"/"bwd" -> coordinates of the outside images, until they are located
    _outside: dict = field(repr=False)

    @property
    def n_points(self) -> int:
        return self.weights.shape[0]

    @property
    def fwd_projected_fraction(self) -> float:
        return float(np.mean(self.fwd_projected))

    @property
    def bwd_projected_fraction(self) -> float:
        return float(np.mean(self.bwd_projected))

    def located(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        """``(tri, bary)`` of every image of ``side``, "fwd" or "bwd", with
        the images outside the mesh projected to its boundary."""
        tri, bary = self._walked[side]
        pending = self._outside.pop(side, None)
        if pending is not None:
            tri2, bary2 = locate_point(self.mesh, project_to_domain(self.mesh, pending))
            if np.any(tri2 < 0):
                raise RuntimeError("projected characteristic endpoint not locatable")
            outside = tri < 0
            tri[outside] = tri2
            bary[outside] = bary2
        return tri, bary


def build_traced_points(
    mesh: TriMesh,
    field: VelocityField,
    rule: QuadratureRule,
    dt: float,
    sigma: float = 1.0,
) -> TracedPoints:
    """Trace every quadrature node of every triangle one step both ways and
    walk each image to its triangle.

    The walk starts from the mesh's bucket-grid cell of the image, so its
    cost does not grow with the length of the characteristic.  Images
    outside the mesh are flagged here and projected only when
    :meth:`TracedPoints.located` reads their direction.
    """
    nq = len(rule)
    nt = mesh.nt
    src = (rule.points @ mesh._tri_xy).reshape(nt * nq, 2)
    walked, projected, outside = {}, {}, {}
    for side, images in (("fwd", trace_forward(field, src, dt, sigma)),
                         ("bwd", trace_backward(field, src, dt, sigma))):
        walked[side] = locate_point(mesh, images)
        projected[side] = walked[side][0] < 0
        if projected[side].any():
            outside[side] = images[projected[side]]
    return TracedPoints(
        mesh=mesh,
        src_tri=np.repeat(np.arange(nt, dtype=np.int64), nq),
        src_bary=np.tile(rule.points, (nt, 1)),
        weights=(mesh.areas[:, None] * rule.weights[None, :]).reshape(nt * nq),
        fwd_projected=projected["fwd"],
        bwd_projected=projected["bwd"],
        _walked=walked,
        _outside=outside,
    )
