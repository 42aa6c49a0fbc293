"""Unstructured triangle meshes: construction, text IO, point location.

Meshes are plain vertex/connectivity arrays plus a few precomputed tables
(areas, barycentric transforms, edge adjacency, a bucket grid of start
triangles) used by assembly and by the point-location walk.  The geometry's
boundary is the free edges, those with a triangle on one side only: the
walk, ``convex``, :func:`project_to_domain` and the map of which grid cells
lie inside, outside or across it all read them; the labelled boundary edges
carry boundary conditions and IO.  Triangles are stored counterclockwise,
free and labelled edges with the domain on their left, which makes the
outward normal of edge (a, b) proportional to (b_y - a_y, a_x - b_x).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TriMesh",
    "build_disk_mesh",
    "build_rect_mesh",
    "save_mesh",
    "load_mesh",
    "locate_point",
    "project_to_domain",
]

# barycentric slack accepted by the location predicates; a point is treated
# as inside a triangle when all coordinates are >= -_BARY_TOL
_BARY_TOL = 1e-12
# triangle centroids per cell of the bucket grid that starts each walk
_CENTROIDS_PER_CELL = 2
# points one pass of locate_point walks at a time; bounds the walk's
# temporaries, about twenty arrays of this length
_LOCATE_BLOCK = 8192
# margin, in cells of the bucket grid, around each free edge (a cell that
# close may be crossed by the boundary) and around the grid (a point further
# off is outside); far above the walk's _BARY_TOL slack and the rounding of
# a cell index
_CELL_PAD = 1e-3


@dataclass(eq=False)
class TriMesh:
    """Triangulated planar domain.

    Attributes
    ----------
    vertices : ndarray, shape (nv, 2)
    triangles : ndarray, shape (nt, 3)
        Vertex indices, counterclockwise.
    boundary_edges : ndarray, shape (nbe, 2)
        Free edges for boundary conditions, each labelled once, oriented
        with the domain on the left.
    boundary_labels : ndarray, shape (nbe,)
    regions : ndarray, shape (nt,)
    vertex_mass : ndarray, shape (nv,)
        Column sums of the consistent P1 mass matrix, |T|/3 summed over the
        triangles around each vertex; ``vertex_mass @ u`` integrates a P1
        field exactly.
    convex : bool
        Whether the free edges bound one convex polygon; the walk then takes
        a step off a free edge as proof that a point is outside.

    Arrays are owned by the mesh and must not be mutated after construction;
    derived tables are computed once in ``__post_init__``.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_labels: np.ndarray
    regions: np.ndarray = None

    # derived, filled in __post_init__
    areas: np.ndarray = field(init=False, repr=False)
    vertex_mass: np.ndarray = field(init=False, repr=False)
    neighbors: np.ndarray = field(init=False, repr=False)
    is_boundary_vertex: np.ndarray = field(init=False, repr=False)
    convex: bool = field(init=False, repr=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(
            self.boundary_edges, dtype=np.int64
        ).reshape(-1, 2)
        self.boundary_labels = np.ascontiguousarray(
            self.boundary_labels, dtype=np.int64
        )
        if self.regions is None:
            self.regions = np.zeros(self.triangles.shape[0], dtype=np.int64)
        self.regions = np.ascontiguousarray(self.regions, dtype=np.int64)

        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (nv, 2)")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("vertex coordinates must be finite")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (nt, 3)")
        if self.triangles.shape[0] == 0:
            raise ValueError("a mesh needs at least one triangle")
        for name, idx in (("triangle", self.triangles),
                          ("boundary edge", self.boundary_edges)):
            if idx.size and (idx.min() < 0 or idx.max() >= self.nv):
                raise ValueError(f"{name} vertex index out of range")
        if self.boundary_labels.shape != (self.boundary_edges.shape[0],):
            raise ValueError("one label per boundary edge required")
        if self.regions.shape != (self.triangles.shape[0],):
            raise ValueError("one region tag per triangle required")

        tri_xy = self.vertices[self.triangles]  # (nt, 3, 2)
        e1 = tri_xy[:, 1] - tri_xy[:, 0]
        e2 = tri_xy[:, 2] - tri_xy[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0.0):
            bad = int(np.sum(det <= 0.0))
            raise ValueError(
                f"{bad} triangles are degenerate or clockwise; need ccw orientation"
            )
        self.areas = 0.5 * det
        self._tri_xy = tri_xy
        # the barycentric transform, as flat arrays so that the walk gathers
        # 1-D arrays: for p in triangle k with d = p - v0, the coordinates
        # are l1 = (r00, r01)[k].d, l2 = (r10, r11)[k].d, l0 = 1 - l1 - l2
        self._r00, self._r01 = e2[:, 1] / det, -e2[:, 0] / det
        self._r10, self._r11 = -e1[:, 1] / det, e1[:, 0] / det
        self._v0x, self._v0y = tri_xy[:, 0, 0].copy(), tri_xy[:, 0, 1].copy()

        self.neighbors = self._build_neighbors()
        # the free edges, no triangle across them, as vertex pairs (a, b)
        # with the domain on their left
        k, j = np.nonzero(self.neighbors < 0)
        self._free_edges = np.column_stack([self.triangles[k, (j + 1) % 3],
                                            self.triangles[k, (j + 2) % 3]])
        # each labelled edge is a free edge, in its orientation, labelled once
        key = self.boundary_edges @ np.array([self.nv, 1])
        free = np.isin(key, self._free_edges @ np.array([self.nv, 1]))
        first = np.zeros(key.size, dtype=bool)
        first[np.unique(key, return_index=True)[1]] = True
        if not np.all(free & first):
            i = np.flatnonzero(~(free & first))[0]
            why = ("labelled twice" if free[i]
                   else "not a free edge with the domain on its left")
            raise ValueError("boundary edge ({}, {}) is {}".format(
                *self.boundary_edges[i], why))
        self._cell_tri = self._build_cell_table(tri_xy.mean(axis=1))
        # triangles around each vertex: _vertex_tris[_vertex_start[v]:
        # _vertex_start[v + 1]], for the location tie-break
        flat = self.triangles.ravel()
        self._vertex_tris = np.argsort(flat, kind="stable") // 3
        self._vertex_start = np.concatenate(
            [[0], np.cumsum(np.bincount(flat, minlength=self.nv))]
        )
        self.vertex_mass = np.bincount(
            flat, weights=np.repeat(self.areas / 3.0, 3), minlength=self.nv
        )
        self.is_boundary_vertex = np.zeros(self.nv, dtype=bool)
        self.is_boundary_vertex[self.boundary_edges.ravel()] = True
        self.convex = self._boundary_is_convex()
        self._cell_side = self._build_cell_sides()
        self._h_max = None

    # ------------------------------------------------------------------
    # basic queries

    @property
    def nv(self) -> int:
        return self.vertices.shape[0]

    @property
    def nt(self) -> int:
        return self.triangles.shape[0]

    @property
    def nbe(self) -> int:
        return self.boundary_edges.shape[0]

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())

    @property
    def h_max(self) -> float:
        """Longest edge length over all triangles."""
        if self._h_max is None:
            xy = self._tri_xy
            h2 = 0.0
            for a, b in ((0, 1), (1, 2), (2, 0)):
                d = xy[:, a] - xy[:, b]
                h2 = max(h2, float(np.max(d[:, 0] ** 2 + d[:, 1] ** 2)))
            self._h_max = math.sqrt(h2)
        return self._h_max

    @property
    def interior_vertices(self) -> np.ndarray:
        return np.flatnonzero(~self.is_boundary_vertex)

    @property
    def boundary_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.is_boundary_vertex)

    def triangle_coords(self, k: int) -> np.ndarray:
        """Corner coordinates of triangle ``k``, shape (3, 2)."""
        return self._tri_xy[k]

    def barycentric(self, tris, points) -> np.ndarray:
        """Barycentric coordinates of ``points`` (m, 2) in triangles ``tris`` (m,).

        Works on scalars as well; no containment check is performed.
        """
        tris = np.asarray(tris, dtype=np.int64)
        points = np.asarray(points, dtype=float)
        scalar = points.ndim == 1
        pts = points.reshape(-1, 2)
        lam = np.column_stack(self._bary3(tris.reshape(-1), pts[:, 0], pts[:, 1]))
        return lam[0] if scalar else lam

    def _bary3(self, t, x, y):
        """Barycentric coordinates (l0, l1, l2), each 1-D, of the points
        (x, y) in triangles ``t`` (indices, or ``slice(None)`` for all)."""
        dx = x - self._v0x[t]
        dy = y - self._v0y[t]
        l1 = self._r00[t] * dx + self._r01[t] * dy
        l2 = self._r10[t] * dx + self._r11[t] * dy
        return 1.0 - l1 - l2, l1, l2

    def _cell_of(self, x, y) -> np.ndarray:
        """Bucket-grid cell of each point; points off the grid get the
        nearest cell."""
        lo, scale, g = self._grid
        ix = np.clip((x - lo[0]) * scale[0], 0, g - 1).astype(np.int64)
        iy = np.clip((y - lo[1]) * scale[1], 0, g - 1).astype(np.int64)
        return iy * g + ix

    # ------------------------------------------------------------------
    # derived-table construction

    def _build_cell_table(self, centroids: np.ndarray) -> np.ndarray:
        """Start triangle of the walk for each cell of a bucket grid over the
        vertex bounding box, about two centroids per cell.

        A cell holding centroids stores the highest-index triangle among
        them.  An empty cell takes the triangle of a nearest stored cell,
        grown one cell at a time from the stored ones (left, right, below,
        above), so every walk starts close to its point.
        """
        g = max(1, math.isqrt(self.nt // _CENTROIDS_PER_CELL))
        lo = self.vertices.min(axis=0)
        self._grid = (lo, g / (self.vertices.max(axis=0) - lo), g)
        cells = np.full(g * g, -1, dtype=np.int64)
        np.maximum.at(cells, self._cell_of(centroids[:, 0], centroids[:, 1]),
                      np.arange(self.nt))
        cells = cells.reshape(g, g)  # row iy, column ix
        while (cells < 0).any():
            old = np.pad(cells, 1, constant_values=-1)
            for near in (old[1:-1, :-2], old[1:-1, 2:], old[:-2, 1:-1], old[2:, 1:-1]):
                cells = np.where((cells < 0) & (near >= 0), near, cells)
        return cells.ravel()

    def _build_cell_sides(self) -> np.ndarray:
        """Side of the domain that each cell of the bucket grid lies on: 1
        inside, -1 outside, 0 where the boundary may cross the cell.

        The boundary is the free edges, those with no triangle across them.
        A cell is 0 when the bounding box of a free edge, padded by
        ``_CELL_PAD`` cells, touches it.  Any other cell lies wholly on one
        side of the boundary, the side of its centre, which one walk finds.
        """
        lo, scale, g = self._grid
        a, b = self.vertices[self._free_edges.T]
        box_lo = (np.minimum(a, b) - lo) * scale - _CELL_PAD
        box_hi = (np.maximum(a, b) - lo) * scale + _CELL_PAD
        first = np.clip(np.floor(box_lo), 0, g - 1).astype(np.int64)
        count = np.clip(np.floor(box_hi), 0, g - 1).astype(np.int64) - first + 1
        # the cells of each box, row by row
        size = count[:, 0] * count[:, 1]
        owner = np.repeat(np.arange(size.size), size)
        slot = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
        ix = first[owner, 0] + slot % count[owner, 0]
        iy = first[owner, 1] + slot // count[owner, 0]
        side = np.ones(g * g, dtype=np.int8)
        side[iy * g + ix] = 0
        rest = np.flatnonzero(side)
        centres = lo + (np.column_stack([rest % g, rest // g]) + 0.5) / scale
        side[rest[~_found(self, centres)]] = -1
        return side

    def _build_neighbors(self) -> np.ndarray:
        """neighbors[k, j] = triangle across the edge opposite local vertex j.

        The 3 nt edges are sorted by their vertex pair, and the two edges
        with the same pair are matched.
        """
        a = self.triangles[:, [1, 2, 0]].ravel()
        b = self.triangles[:, [2, 0, 1]].ravel()
        key = np.minimum(a, b) * self.nv + np.maximum(a, b)
        order = np.argsort(key)
        key = key[order]
        if np.any(key[2:] == key[:-2]):
            raise ValueError("edge shared by more than two triangles")
        first = np.flatnonzero(key[1:] == key[:-1])
        one, two = order[first], order[first + 1]
        neigh = np.full(key.size, -1, dtype=np.int64)
        neigh[one] = two // 3
        neigh[two] = one // 3
        return neigh.reshape(-1, 3)

    def _boundary_is_convex(self) -> bool:
        """Whether the free edges bound one convex polygon: each boundary
        vertex starts one and ends one, every turn to the next is left or
        none, never back, and the turns add up to 2 pi, one loop's worth."""
        a, b = self._free_edges.T
        if not np.array_equal(np.unique(a), np.sort(b)):
            return False
        after = np.empty(self.nv, dtype=np.int64)
        after[a] = np.arange(a.size)
        d = self.vertices[b] - self.vertices[a]
        e = d[after[b]]  # the free edge that follows each one
        cross = d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0]
        dot = d[:, 0] * e[:, 0] + d[:, 1] * e[:, 1]
        slack = 1e-12 * float(np.max(d[:, 0] ** 2 + d[:, 1] ** 2))
        if np.any(cross < -slack) or np.any((cross <= slack) & (dot < 0.0)):
            return False
        return abs(float(np.arctan2(cross, dot).sum()) - 2.0 * math.pi) < math.pi


# ----------------------------------------------------------------------
# point location

# (outside point, free edge) pairs project_to_domain searches at once;
# bounds the (points, free edges) temporaries of the nearest-segment search
# whatever the number of free edges
_PROJECT_PAIRS = 16384
# edge points handled at once by _lowest_containing; bounds its candidate
# temporaries, about 18 triangles per point
_EDGE_CHUNK = 1024


def _scan_for_point(mesh: TriMesh, point: np.ndarray):
    """Lowest-index triangle containing ``point``, or None.

    Brute force over all triangles; the fallback when the edge walk steps
    off a non-convex boundary or runs out of rounds.
    """
    l0, l1, l2 = mesh._bary3(slice(None), point[0], point[1])
    ok = (l0 >= -_BARY_TOL) & (l1 >= -_BARY_TOL) & (l2 >= -_BARY_TOL)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None
    k = int(hits[0])
    return k, np.array([l0[k], l1[k], l2[k]])


def _lowest_containing(mesh: TriMesh, points: np.ndarray, tris: np.ndarray):
    """Lowest-index triangle containing each point, among the triangles that
    share a vertex with ``tris`` (which must contain the points)."""
    best = tris.copy()
    for lo in range(0, tris.size, _EDGE_CHUNK):
        part = tris[lo : lo + _EDGE_CHUNK]
        corners = mesh.triangles[part].ravel()
        first = mesh._vertex_start[corners]
        count = mesh._vertex_start[corners + 1] - first
        owner = np.repeat(np.arange(part.size).repeat(3), count)
        # slots first .. first + count - 1 of every corner, one after another
        ends = np.cumsum(count)
        slots = np.arange(ends[-1]) + np.repeat(first - (ends - count), count)
        cand = mesh._vertex_tris[slots]
        ok = mesh.barycentric(cand, points[lo + owner]).min(axis=1) >= -_BARY_TOL
        np.minimum.at(best, lo + owner[ok], cand[ok])
    return best


def locate_point(mesh: TriMesh, point, hint=None):
    """Find the triangle containing ``point``.

    For one point (shape (2,)) returns ``(triangle_index, barycentric)`` or
    ``None`` when the point lies outside the mesh.  For a batch (m, 2)
    returns ``(tris, bary)`` with ``tris[i] = -1`` for outside points.
    The walk starts at the triangle stored for the point's cell of the
    mesh's bucket grid, a triangle or two away.  Coordinates are clamped to
    the closed triangle and sum to one.  The result does not depend on where
    the walk starts: a point within tolerance of an edge is reported in the
    lowest-index triangle that contains it.  ``hint`` is accepted for
    compatibility and ignored, since every cell of the grid stores a start.
    """
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    tri = np.empty(pts.shape[0], dtype=np.int64)
    bary = np.empty((pts.shape[0], 3))
    for lo in range(0, pts.shape[0], _LOCATE_BLOCK):
        block = slice(lo, lo + _LOCATE_BLOCK)
        tri[block], bary[block] = _lowest_first(
            mesh, pts[block], *_walk_block(mesh, pts[block]))
    if single:
        return (int(tri[0]), bary[0]) if tri[0] >= 0 else None
    return tri, bary


# Kept apart from locate_point(...)[0] >= 0, which gives the same flags, for
# time: on the 60x60 Heston rectangle all 3 249 cell centres that
# _build_cell_sides walks lie on an edge and take the lowest-index
# tie-break, 7.1 against 0.36 ms in a 3.9 ms build; on the N = 400 disk, 83
# of 12 217 do, 2.5 against 2.0 ms (best of 7, shared 2-vCPU x86_64 VM).
def _found(mesh: TriMesh, pts: np.ndarray) -> np.ndarray:
    """``locate_point(mesh, pts)[0] >= 0``, without the tie-break."""
    found = np.empty(pts.shape[0], dtype=bool)
    for lo in range(0, pts.shape[0], _LOCATE_BLOCK):
        block = slice(lo, lo + _LOCATE_BLOCK)
        found[block] = _walk_block(mesh, pts[block])[0] >= 0
    return found


def _outside(mesh: TriMesh, pts: np.ndarray) -> np.ndarray:
    """``locate_point(mesh, pts)[0] < 0``, read from the cell map where it
    can be.

    A point more than ``_CELL_PAD`` cells off the bucket grid is outside.
    Any other point takes the side of its cell, or of the nearest cell when
    it is off the grid; only the points in cells the boundary may cross are
    walked.  No cell at the edge of the grid is inside the domain.
    """
    lo, scale, g = mesh._grid
    fx = (pts[:, 0] - lo[0]) * scale[0]
    fy = (pts[:, 1] - lo[1]) * scale[1]
    # a NaN fails every comparison, so it is outside, as in the walk
    near = np.flatnonzero((fx >= -_CELL_PAD) & (fx <= g + _CELL_PAD)
                          & (fy >= -_CELL_PAD) & (fy <= g + _CELL_PAD))
    side = mesh._cell_side[mesh._cell_of(pts[near, 0], pts[near, 1])]
    out = np.ones(pts.shape[0], dtype=bool)
    out[near] = side < 0
    walk = near[side == 0]
    out[walk] = ~_found(mesh, pts[walk])
    return out


def _walk_block(mesh: TriMesh, pts: np.ndarray):
    """A triangle containing each point of ``pts`` (m, 2), -1 when none
    does, and the point's barycentric coordinates in it, rows l0, l1, l2.

    The edge walk decides; a walk that steps off a non-convex boundary or
    runs out of rounds falls back to the scan.
    """
    m = pts.shape[0]
    tri = np.full(m, -1, dtype=np.int64)
    lam = np.zeros((3, m))
    x, y = pts[:, 0], pts[:, 1]
    # a non-finite point lies in no triangle and has no grid cell
    active = np.flatnonzero(np.isfinite(x) & np.isfinite(y))
    x, y = x[active], y[active]
    cur = mesh._cell_tri[mesh._cell_of(x, y)]
    neighbors = mesh.neighbors.ravel()
    stuck = []
    for _ in range(4 * mesh.nt):
        if active.size == 0:
            break
        l0, l1, l2 = mesh._bary3(cur, x, y)
        low = np.minimum(np.minimum(l0, l1), l2)
        done = low >= -_BARY_TOL
        if done.any():
            hit = active[done]
            tri[hit] = cur[done]
            lam[0, hit], lam[1, hit], lam[2, hit] = l0[done], l1[done], l2[done]
        # cross the edge opposite the first most negative coordinate
        j = np.where(l0 == low, 0, np.where(l1 == low, 1, 2))
        nxt = neighbors[3 * cur + j]
        off = ~done & (nxt < 0)
        if not mesh.convex and off.any():
            # stepping off the boundary of a non-convex domain proves nothing
            stuck.append(active[off])
        keep = ~done & (nxt >= 0)
        active, cur, x, y = active[keep], nxt[keep], x[keep], y[keep]
    stuck.append(active)  # ran out of rounds
    for i in np.concatenate(stuck):
        hit = _scan_for_point(mesh, pts[i])
        if hit is not None:
            tri[i], lam[:, i] = hit
    return tri, lam


def _lowest_first(mesh: TriMesh, pts: np.ndarray, tri: np.ndarray,
                  lam: np.ndarray):
    """The walk's answer ``(tri, lam)`` for ``pts`` made independent of
    where it started, as :func:`locate_point` returns it.

    Several triangles accept a point on or next to an edge: the lowest index
    is reported.  The coordinates are clamped and renormalized.
    """
    edge = np.flatnonzero((tri >= 0) & (lam.min(axis=0) <= _BARY_TOL))
    if edge.size:
        tri[edge] = _lowest_containing(mesh, pts[edge], tri[edge])
        lam[:, edge] = mesh.barycentric(tri[edge], pts[edge]).T
    found = tri >= 0
    lam = np.clip(lam, 0.0, 1.0)
    total = lam.sum(axis=0)
    total[~found] = 1.0
    return tri, (lam / total).T


def project_to_domain(mesh: TriMesh, point) -> np.ndarray:
    """Closest point of the closed meshed domain.

    Accepts one point (2,) or a batch (m, 2) and returns the same shape.
    Points already in the mesh are returned unchanged; outside points are
    pulled to the nearest point of the free edges.  A point that is not
    finite has no closest point and is refused.
    """
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise ValueError("points to project must be finite")
    out = pts.copy()
    outside = np.flatnonzero(_outside(mesh, pts))
    a, b = mesh.vertices[mesh._free_edges.T]
    ab = b - a
    # a free edge is a side of a triangle of positive area: never of length 0
    denom = ab[:, 0] ** 2 + ab[:, 1] ** 2
    chunk = max(1, _PROJECT_PAIRS // len(ab))
    for lo in range(0, outside.size, chunk):
        idx = outside[lo : lo + chunk]
        px = pts[idx, 0:1]
        py = pts[idx, 1:2]
        t = ((px - a[:, 0]) * ab[:, 0] + (py - a[:, 1]) * ab[:, 1]) / denom
        t = np.clip(t, 0.0, 1.0)
        qx = a[:, 0] + t * ab[:, 0]
        qy = a[:, 1] + t * ab[:, 1]
        d2 = (qx - px) ** 2 + (qy - py) ** 2
        j = np.argmin(d2, axis=1)
        rows = np.arange(idx.size)
        out[idx, 0] = qx[rows, j]
        out[idx, 1] = qy[rows, j]
    return out[0] if single else out


# ----------------------------------------------------------------------
# mesh builders


MIN_BOUNDARY = 8  # fewest boundary vertices build_disk_mesh accepts


def _whole(name: str, value, least: int) -> int:
    """``value`` as an int when it is an int or numpy integer >= ``least``,
    not a bool; anything else raises ``ValueError`` naming ``name``."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least):
        raise ValueError(f"{name} must be a whole number >= {least}")
    return int(value)


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a float when it is a finite real number, not a bool,
    > 0 when ``positive``; else ``ValueError`` naming ``name``."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)):
        raise ValueError(f"{name} must be finite, not {value!r}")
    if positive and not value > 0.0:
        raise ValueError(f"{name} must be > 0, not {value!r}")
    return float(value)


def build_rect_mesh(nx: int, ny: int, x_max: float, y_max: float) -> TriMesh:
    """Structured triangulation of the rectangle [0, x_max] x [0, y_max].

    ``nx`` by ``ny`` grid vertices; each grid cell is split along its
    up-right diagonal, giving 2 (nx-1) (ny-1) triangles.  Boundary labels:
    1 bottom, 2 right, 3 top, 4 left, traversed counterclockwise.
    """
    nx, ny = _whole("nx", nx, 2), _whole("ny", ny, 2)
    x_max, y_max = _real("x_max", x_max, True), _real("y_max", y_max, True)
    xs = np.linspace(0.0, x_max, nx)
    ys = np.linspace(0.0, y_max, ny)
    xx, yy = np.meshgrid(xs, ys)  # row j -> y = ys[j]
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # lower-left vertex of each cell, row by row from the bottom
    v00 = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)).ravel()
    v11 = v00 + nx + 1
    triangles = np.column_stack([v00, v00 + 1, v11, v00, v11, v00 + nx]).reshape(-1, 3)

    ring = np.concatenate([
        np.arange(nx - 1),                          # bottom, left to right
        np.arange(ny - 1) * nx + nx - 1,            # right, upward
        (ny - 1) * nx + np.arange(nx - 1, 0, -1),   # top, right to left
        np.arange(ny - 1, 0, -1) * nx,              # left, downward
    ])
    return TriMesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=np.column_stack([ring, np.roll(ring, -1)]),
        boundary_labels=np.repeat([1, 2, 3, 4], [nx - 1, ny - 1, nx - 1, ny - 1]),
        regions=np.zeros(triangles.shape[0], dtype=np.int64),
    )


def _band_triangles(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Counterclockwise triangles tiling the annulus band between two rings.

    ``inner`` and ``outer`` list vertex ids in increasing-angle order with the
    first vertex of each ring at angle 0.  Each advance along a ring emits one
    triangle, nI + nO in total; advance i of the inner ring reaches angle
    (i+1)/nI turns and advance o of the outer ring (o+1)/nO.  The advances
    are taken in order of angle, compared exactly through the integer keys
    (i+1) nO and (o+1) nI, the inner ring first on ties.
    """
    nI, nO = len(inner), len(outer)
    if nI == 1:
        return np.column_stack([np.full(nO, inner[0]), outer, np.roll(outer, -1)])
    keys = np.concatenate([np.arange(1, nI + 1) * nO, np.arange(1, nO + 1) * nI])
    on_inner = np.argsort(keys, kind="stable") < nI
    # advances of each ring made before each event
    i = np.cumsum(on_inner) - on_inner
    o = np.cumsum(~on_inner) - ~on_inner
    third = np.where(on_inner, inner[(i + 1) % nI], outer[(o + 1) % nO])
    return np.column_stack([inner[i % nI], outer[o % nO], third])


def build_disk_mesh(n_boundary: int) -> TriMesh:
    """Ring-structured triangulation of the unit disk.

    ``n_boundary`` vertices on the unit circle (at angles 2 pi k / n), with
    concentric interior rings whose vertex counts shrink proportionally to
    the radius, so triangles stay close to isotropic.  Boundary edges carry
    label 1.
    """
    n = _whole("n_boundary", n_boundary, MIN_BOUNDARY)
    m = max(1, round(n / (2.0 * math.pi)))  # number of rings
    ring_counts = [max(1, round(n * j / m)) for j in range(1, m + 1)]
    ring_counts[-1] = n

    verts = [np.zeros((1, 2))]
    rings = [np.array([0], dtype=np.int64)]
    start = 1
    for j, nj in enumerate(ring_counts, start=1):
        r = j / m
        ang = 2.0 * math.pi * np.arange(nj) / nj
        verts.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
        rings.append(np.arange(start, start + nj, dtype=np.int64))
        start += nj

    triangles = np.concatenate([_band_triangles(inner, outer)
                                for inner, outer in zip(rings[:-1], rings[1:])])
    boundary_ring = rings[-1]
    return TriMesh(
        vertices=np.concatenate(verts),
        triangles=triangles,
        boundary_edges=np.column_stack([boundary_ring, np.roll(boundary_ring, -1)]),
        boundary_labels=np.ones(n, dtype=np.int64),
        regions=np.zeros(triangles.shape[0], dtype=np.int64),
    )


# ----------------------------------------------------------------------
# text IO (1-based connectivity on disk)


def save_mesh(mesh: TriMesh, path) -> None:
    """Write a mesh as text: header ``nv nt nbe``, then vertex, triangle and
    boundary-edge records.  Connectivity is 1-based in the file."""
    lines = [f"{mesh.nv} {mesh.nt} {mesh.nbe}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    for (a, b, c), reg in zip(mesh.triangles, mesh.regions):
        lines.append(f"{a + 1} {b + 1} {c + 1} {reg}")
    for (a, b), lab in zip(mesh.boundary_edges, mesh.boundary_labels):
        lines.append(f"{a + 1} {b + 1} {lab}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path) -> TriMesh:
    """Read a mesh written by :func:`save_mesh`.

    Clockwise triangles in the file are reoriented; malformed counts raise
    ValueError.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise ValueError("mesh file too short")
    pos = 0

    def take(k):
        nonlocal pos
        if pos + k > len(tokens):
            raise ValueError("mesh file truncated")
        out = tokens[pos : pos + k]
        pos += k
        return out

    nv, nt, nbe = (int(t) for t in take(3))
    if nv <= 0 or nt <= 0 or nbe < 0:
        raise ValueError("bad mesh header")
    vertices = np.array([float(t) for t in take(2 * nv)]).reshape(nv, 2)
    tri_rec = np.array([int(t) for t in take(4 * nt)]).reshape(nt, 4)
    be_rec = np.array([int(t) for t in take(3 * nbe)], dtype=np.int64).reshape(nbe, 3)
    if pos != len(tokens):
        raise ValueError("trailing data in mesh file")

    triangles = tri_rec[:, :3] - 1
    regions = tri_rec[:, 3]
    if triangles.min() < 0 or triangles.max() >= nv:
        raise ValueError("triangle vertex index out of range")
    # reorient any clockwise triangle
    xy = vertices[triangles]
    e1 = xy[:, 1] - xy[:, 0]
    e2 = xy[:, 2] - xy[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    flip = det < 0.0
    if np.any(flip):
        triangles[flip] = triangles[flip][:, [0, 2, 1]]

    return TriMesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=be_rec[:, :2] - 1,
        boundary_labels=be_rec[:, 2],
        regions=regions,
    )
