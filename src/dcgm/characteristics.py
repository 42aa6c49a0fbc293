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
flags the images that left the mesh.  A scheme reads one direction only:
the dual scheme the forward images, the primal scheme the backward ones.
That direction's images are located with one walk each, the outside ones
are projected to the boundary and located again, and the step's transport
matrix is built from the located images.  The other direction's flags are
read from the mesh's map of inside and outside grid cells, which walks only
the images in cells the boundary may cross.  The images are only
scaffolding for the matrix: the build runs in blocks of whole triangles,
and what it keeps is the matrix and the two flag arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh, _outside, _real, locate_point, project_to_domain
from .quadrature import QuadratureRule

# points traced at a time; bounds the (m, 2, 2) Jacobian and its temporaries
_TRACE_BLOCK = 8192
# quadrature points build_traced_points traces, walks and multiplies at a
# time, in blocks of whole triangles; bounds its per-point arrays
_BUILD_BLOCK = 32768

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


def _trace(field: VelocityField, x, dt: float, sigma: float, directions):
    """Images of ``x`` one step along each of ``directions`` (+1 forward,
    -1 backward), all from one evaluation of the field per point."""
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    outs = [np.empty_like(pts) for _ in directions]
    for lo in range(0, pts.shape[0], _TRACE_BLOCK):
        block = slice(lo, lo + _TRACE_BLOCK)
        move, bend = _trace_block(field, pts[block], dt, sigma)
        for out, direction in zip(outs, directions):
            image = pts[block] + move if direction > 0 else pts[block] - move
            out[block] = image if bend is None else image + bend
    return [out[0] if scalar else out for out in outs]


def _trace_block(field: VelocityField, pts: np.ndarray, dt: float,
                 sigma: float):
    """The two terms of a trace from the batch ``pts`` (m, 2): dt a(x), and
    sigma (dt^2/2) (a . grad) a (x), None when the trace is first order."""
    ax, ay = field.value(pts[:, 0], pts[:, 1])
    a = np.column_stack(
        [
            np.broadcast_to(np.asarray(ax, dtype=float), (pts.shape[0],)),
            np.broadcast_to(np.asarray(ay, dtype=float), (pts.shape[0],)),
        ]
    )
    if sigma == 0.0 or field.jacobian is None:
        return dt * a, None
    jac = np.broadcast_to(
        np.asarray(field.jacobian(pts[:, 0], pts[:, 1]), dtype=float),
        (pts.shape[0], 2, 2),
    )
    curve = np.einsum("mi,mij->mj", a, jac)
    return dt * a, (0.5 * sigma * dt * dt) * curve


def trace_forward(field: VelocityField, x, dt: float, sigma: float = 1.0):
    """Position after following the field for time ``dt`` from ``x``.

    Accepts one point (shape (2,)) or a batch (m, 2); returns the same shape.
    """
    return _trace(field, x, dt, sigma, (+1,))[0]


def trace_backward(field: VelocityField, x, dt: float, sigma: float = 1.0):
    """Position ``dt`` ago under the field, second order when sigma = 1."""
    return _trace(field, x, dt, sigma, (-1,))[0]


@dataclass(eq=False)
class TracedPoints:
    """The transport of one step and the flags of the images behind it.

    There is one point per (triangle, quadrature node), ``n_points`` in all.
    Both directions are traced, but only the one read is located;
    ``*_projected`` flags the images that left the mesh, exactly as
    :func:`locate_point` would.  ``transport`` is the step's transport
    matrix, built from the direction the scheme reads: P_fwd^T W P_src for
    the dual scheme, P_src^T W P_bwd for the primal one.  Row q of P_src
    holds the barycentric weights of node q in its own triangle, row q of
    P_fwd or P_bwd those of its image, and W is diagonal with the node
    weights times the triangle areas.  An image outside the mesh is pulled
    back by :func:`project_to_domain` and located again first.  Barycentric
    coordinates are clamped to [0, 1] and renormalized to sum exactly to
    one, which is what makes the dual transport conserve mass.
    """

    n_points: int
    fwd_projected: np.ndarray
    bwd_projected: np.ndarray
    transport: sp.csr_matrix


def _interpolation_matrix(mesh: TriMesh, tri: np.ndarray,
                          bary: np.ndarray) -> sp.csr_matrix:
    """Point values from vertex values: row q holds the barycentric weights
    ``bary[q]`` at the three vertices of triangle ``tri[q]``."""
    n = tri.shape[0]
    return sp.csr_matrix(
        (bary.ravel(), mesh.triangles[tri].ravel(), np.arange(0, 3 * n + 1, 3)),
        shape=(n, mesh.nv),
    )


def _transport_block(mesh: TriMesh, field: VelocityField, rule: QuadratureRule,
                     dt: float, sigma: float, dual: bool, t0: int, t1: int):
    """The transport of the quadrature nodes of triangles t0 .. t1 - 1 and
    the flags of their forward and backward images.  Both directions are
    traced; the one read is located, its outside images after projection,
    and the images are freed before the product is formed."""
    nq = len(rule)
    src = (rule.points @ mesh._tri_xy[t0:t1]).reshape(-1, 2)
    fwd, bwd = _trace(field, src, dt, sigma, (+1, -1))
    if not (np.isfinite(fwd).all() and np.isfinite(bwd).all()):
        raise ValueError("the velocity field gives an image that is not finite")
    images, other = (fwd, bwd) if dual else (bwd, fwd)
    unread = _outside(mesh, other)
    tri, bary = locate_point(mesh, images)
    outside = tri < 0
    if outside.any():
        tri[outside], bary[outside] = locate_point(
            mesh, project_to_domain(mesh, images[outside]))
        if np.any(tri < 0):
            raise RuntimeError("projected characteristic endpoint not locatable")
    del src, fwd, bwd, images, other
    src = (np.repeat(np.arange(t0, t1, dtype=np.int64), nq),
           np.tile(rule.points, (t1 - t0, 1)))
    # P_fwd^T W P_src for the dual scheme, P_src^T W P_bwd for the primal;
    # the node weights go into the transposed factor's data, so the block's
    # transport is one sparse product
    left, right = ((tri, bary), src) if dual else (src, (tri, bary))
    w = (mesh.areas[t0:t1, None] * rule.weights[None, :]).reshape(-1, 1)
    np.multiply(left[1], w, out=left[1])
    block = (_interpolation_matrix(mesh, *left).T
             @ _interpolation_matrix(mesh, *right))
    return (block, outside, unread) if dual else (block, unread, outside)


def build_traced_points(
    mesh: TriMesh,
    field: VelocityField,
    rule: QuadratureRule,
    dt: float,
    sigma: float = 1.0,
    dual: bool = True,
) -> TracedPoints:
    """Trace every quadrature node of every triangle one step both ways,
    flag the images outside the mesh, and build the transport from the
    forward images (``dual``) or the backward ones.

    Each image read is walked to its triangle from the mesh's bucket-grid
    cell of the image, so the cost does not grow with the length of the
    characteristic; only its outside images are projected.  The flags of the
    direction not read come from the mesh's outside test.  The work runs in
    blocks of whole triangles, about ``_BUILD_BLOCK`` points each: a block's
    transport is one sparse product, added to a running sum as soon as it is
    built.  Each point is located on its own, so the blocks change only the
    order in which the transport is summed.
    """
    _real("dt", dt, positive=True)
    _real("sigma", sigma)
    nq, nt = len(rule), mesh.nt
    fwd, bwd = np.empty(nt * nq, dtype=bool), np.empty(nt * nq, dtype=bool)
    per_block = max(1, _BUILD_BLOCK // nq)
    transport = sp.csr_matrix((mesh.nv, mesh.nv))
    for t0 in range(0, nt, per_block):
        t1 = min(t0 + per_block, nt)
        block, fwd[t0 * nq:t1 * nq], bwd[t0 * nq:t1 * nq] = _transport_block(
            mesh, field, rule, dt, sigma, dual, t0, t1)
        transport = transport + block
        del block  # not kept while the next block is built
    return TracedPoints(n_points=nt * nq, fwd_projected=fwd,
                        bwd_projected=bwd, transport=transport)
