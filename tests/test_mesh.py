"""Mesh construction, geometry, point location, and file round-trips."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcgm import mesh as mesh_module
from dcgm.mesh import (TriMesh, _scan_for_point, build_disk_mesh,
                       build_rect_mesh, load_mesh, locate_point,
                       project_to_domain, save_mesh)

LOCATE_MESHES = {"disk": build_disk_mesh(40), "rect": build_rect_mesh(7, 5, 2.0, 1.0)}


def test_rect_counts_small():
    m = build_rect_mesh(4, 3, 1.0, 1.0)
    assert (m.nv, m.nt, m.nbe) == (12, 12, 10)
    assert m.total_area == pytest.approx(1.0, abs=1e-14)


def test_rect_counts_large():
    m = build_rect_mesh(150, 150, 200.0, 2.0)
    assert (m.nv, m.nt) == (22500, 44402)
    assert m.total_area == pytest.approx(400.0, rel=1e-12)


def test_rect_boundary_labels():
    m = build_rect_mesh(5, 4, 2.0, 1.0)
    labels = set(int(v) for v in m.boundary_labels)
    assert labels == {1, 2, 3, 4}
    for (a, b), lab in zip(m.boundary_edges, m.boundary_labels):
        pa, pb = m.vertices[a], m.vertices[b]
        if lab == 1:
            assert pa[1] == 0.0 and pb[1] == 0.0
        elif lab == 3:
            assert pa[1] == 1.0 and pb[1] == 1.0


def test_disk_counts_frozen():
    # structured polar construction; sizes pinned so downstream benchmarks
    # are reproducible across versions
    for n, nv, nt in [(100, 851, 1600), (200, 3301, 6400), (400, 13001, 25600)]:
        m = build_disk_mesh(n)
        assert (m.nv, m.nt, m.nbe) == (nv, nt, n)


def loop_rect_tables(nx, ny):
    """Triangles, boundary edges and labels of build_rect_mesh, one cell and
    one edge at a time."""
    tris = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            v00 = j * nx + i
            tris += [(v00, v00 + 1, v00 + nx + 1), (v00, v00 + nx + 1, v00 + nx)]
    edges, labels = [], []
    for i in range(nx - 1):
        edges.append((i, i + 1))
        labels.append(1)
    for j in range(ny - 1):
        edges.append((j * nx + nx - 1, (j + 1) * nx + nx - 1))
        labels.append(2)
    for i in range(nx - 1, 0, -1):
        edges.append(((ny - 1) * nx + i, (ny - 1) * nx + i - 1))
        labels.append(3)
    for j in range(ny - 1, 0, -1):
        edges.append((j * nx, (j - 1) * nx))
        labels.append(4)
    return tris, edges, labels


def loop_disk_tables(n):
    """Vertices and triangles of build_disk_mesh, one vertex at a time, with
    the bands stitched by a merge of the two rings' next angles."""
    m = max(1, round(n / (2.0 * math.pi)))
    counts = [max(1, round(n * j / m)) for j in range(1, m)] + [n]
    verts = [(0.0, 0.0)]
    rings = [[0]]
    for j, nj in enumerate(counts, start=1):
        rings.append(list(range(len(verts), len(verts) + nj)))
        for t in 2.0 * math.pi * np.arange(nj) / nj:
            verts.append((j / m * math.cos(t), j / m * math.sin(t)))
    tris = []
    for inner, outer in zip(rings[:-1], rings[1:]):
        nI, nO = len(inner), len(outer)
        if nI == 1:
            tris += [(inner[0], outer[o], outer[(o + 1) % nO]) for o in range(nO)]
            continue
        i = o = 0
        while i < nI or o < nO:
            if o >= nO or (i < nI and (i + 1) * nO <= (o + 1) * nI):
                tris.append((inner[i % nI], outer[o % nO], inner[(i + 1) % nI]))
                i += 1
            else:
                tris.append((inner[i % nI], outer[o % nO], outer[(o + 1) % nO]))
                o += 1
    return verts, tris


@pytest.mark.parametrize("nx, ny", [(2, 2), (2, 5), (7, 3), (60, 60)])
def test_rect_builder_matches_loops(nx, ny):
    m = build_rect_mesh(nx, ny, 3.0, 2.0)
    tris, edges, labels = loop_rect_tables(nx, ny)
    assert m.triangles.tolist() == [list(t) for t in tris]
    assert m.boundary_edges.tolist() == [list(e) for e in edges]
    assert m.boundary_labels.tolist() == labels


@pytest.mark.parametrize("n", [8, 13, 60, 200, 400])
def test_disk_builder_matches_loops(n):
    m = build_disk_mesh(n)
    verts, tris = loop_disk_tables(n)
    assert m.triangles.tolist() == [list(t) for t in tris]
    # one ring at a time through numpy's cos and sin, one vertex at a time
    # through the math module's: equal to within the last bit
    np.testing.assert_allclose(m.vertices, np.array(verts), rtol=0, atol=4e-16)
    ring = m.boundary_edges[:, 0]
    assert ring.tolist() == list(range(m.nv - n, m.nv))
    assert np.array_equal(m.boundary_edges[:, 1], np.roll(ring, -1))


def test_disk_geometry(disk100):
    # area deficit of the inscribed polygonal disk is O(h^2)
    assert disk100.total_area == pytest.approx(math.pi, abs=5e-3)
    r = np.hypot(disk100.vertices[:, 0], disk100.vertices[:, 1])
    assert r.max() <= 1.0 + 1e-14
    assert disk100.convex


def test_disk_rejects_tiny():
    with pytest.raises(ValueError):
        build_disk_mesh(5)


@pytest.mark.parametrize("build, name", [
    (lambda: build_disk_mesh(40.5), "n_boundary"),
    (lambda: build_disk_mesh(40.0), "n_boundary"),
    (lambda: build_rect_mesh(10.5, 10, 1.0, 1.0), "nx"),
    (lambda: build_rect_mesh(10, 1, 1.0, 1.0), "ny"),
])
def test_vertex_counts_must_be_whole(build, name):
    # a vertex count that is not an int, or too small, is refused, naming
    # the argument, instead of building the mesh of its integer part
    with pytest.raises(ValueError, match=rf"^{name} must be a whole number"):
        build()


@pytest.mark.parametrize("extents, name", [
    ((math.nan, 1.0), "x_max"),
    ((math.inf, 1.0), "x_max"),
    ((0.0, 1.0), "x_max"),
    ((1.0, -2.0), "y_max"),
    (("1", 1.0), "x_max"),
    ((1.0, None), "y_max"),
])
def test_rect_extents_must_be_finite_and_positive(extents, name):
    with pytest.raises(ValueError, match=rf"^{name} must be (finite|> 0)"):
        build_rect_mesh(4, 4, *extents)


def test_numpy_integer_vertex_counts():
    assert build_disk_mesh(np.int64(40)).nv == build_disk_mesh(40).nv
    assert build_rect_mesh(np.int32(4), np.int64(3), 1.0, 1.0).nv == 12


def test_ccw_required():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 2, 1]])  # clockwise
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    with pytest.raises(ValueError):
        TriMesh(verts, tris, edges, np.ones(3, dtype=np.int32))


@pytest.mark.parametrize("edges, vertex, match", [
    ([[0, -1]], None, "boundary edge vertex index out of range"),
    ([[0, 99]], None, "boundary edge vertex index out of range"),
    ([[0, 0]], None, r"boundary edge \(0, 0\) is not a free edge"),
    (None, [np.nan, 0.5], "vertex coordinates must be finite"),
    ([[0, 4], [4, 0]], None, r"boundary edge \(0, 4\) is not a free edge"),
    ([[0, 1], [2, 1]], None, r"boundary edge \(2, 1\) is not a free edge"),
    ([[0, 1], [1, 2], [0, 1]], None, r"boundary edge \(0, 1\) is labelled twice"),
], ids=["negative-index", "index-past-nv", "zero-length-edge", "nan-vertex",
        "interior-edge", "reversed-ring-edge", "repeated-edge"])
def test_bad_input_rejected_at_construction(edges, vertex, match):
    m = build_rect_mesh(3, 3, 1.0, 1.0)
    verts = m.vertices.copy()
    be, labels = m.boundary_edges, m.boundary_labels
    if edges is not None:
        be, labels = np.array(edges), np.ones(len(edges), dtype=np.int64)
    if vertex is not None:
        verts[4] = vertex
    with pytest.raises(ValueError, match=match):
        TriMesh(verts, m.triangles, be, labels)


def test_a_mesh_with_no_triangles_is_refused():
    # in a child process with a timeout, so that a construction that never
    # returns fails the test instead of stalling the suite
    code = ("import numpy as np\nfrom dcgm.mesh import TriMesh\ntry:\n"
            "    TriMesh(np.zeros((3, 2)), np.zeros((0, 3), int),"
            " np.zeros((0, 2), int), np.zeros(0, int))\n"
            "except ValueError as e:\n    print(e)\n")
    src = str(Path(mesh_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=10)
    assert out.stdout.strip() == "a mesh needs at least one triangle"


def test_edge_in_three_triangles_rejected():
    # three triangles folded over the edge (0, 1)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, 3.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    edges = np.array([[0, 1], [1, 4], [4, 0]])
    with pytest.raises(ValueError, match="edge shared by more than two triangles"):
        TriMesh(verts, tris, edges, np.ones(3, dtype=np.int64))


def test_h_max(unit_square):
    # 9x9 grid on the unit square: diagonal of one cell
    assert unit_square.h_max == pytest.approx(math.sqrt(2.0) / 8.0, rel=1e-12)


def test_barycentric_scalar_batch(disk60, rng):
    pts = rng.uniform(-0.5, 0.5, size=(40, 2))
    tris = rng.integers(0, disk60.nt, size=40)
    batch = disk60.barycentric(tris, pts)
    for i in range(40):
        single = disk60.barycentric(int(tris[i]), pts[i])
        assert np.allclose(batch[i], single, atol=1e-14)
        assert batch[i].sum() == pytest.approx(1.0, abs=1e-12)


def test_locate_interior_points(disk100, rng):
    # acceptance-grade check lives in test_acceptance; this is the cheap tier
    t = rng.uniform(0.0, 2.0 * math.pi, size=500)
    r = 0.999 * np.sqrt(rng.uniform(0.0, 1.0, size=500))
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    for p in pts:
        loc = locate_point(disk100, p)
        assert loc is not None
        tri, bary = loc
        assert bary.min() >= -1e-12
        v = disk100.vertices[disk100.triangles[tri]]
        back = bary @ v
        assert np.allclose(back, p, atol=1e-12)


def test_locate_hint_independent(disk100, rng):
    t = rng.uniform(0.0, 2.0 * math.pi, size=200)
    r = 0.99 * np.sqrt(rng.uniform(0.0, 1.0, size=200))
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    hints = rng.integers(0, disk100.nt, size=200)
    for p, h in zip(pts, hints):
        a = locate_point(disk100, p)
        b = locate_point(disk100, p, hint=int(h))
        assert a is not None and b is not None
        assert a[0] == b[0]
        assert np.allclose(a[1], b[1], atol=1e-12)


def test_locate_outside(disk100):
    assert locate_point(disk100, np.array([1.5, 0.0])) is None
    assert locate_point(disk100, np.array([0.9, 0.9])) is None
    tri, _ = locate_point(disk100, np.array([[np.nan, 0.0], [0.0, np.inf], [0.1, 0.2]]))
    assert tri[0] == tri[1] == -1 and tri[2] >= 0


@st.composite
def probe_points(draw):
    """A mesh and points on its edges, at its vertices, inside its
    triangles, and on or outside its boundary edges."""
    mesh = LOCATE_MESHES[draw(st.sampled_from(sorted(LOCATE_MESHES)))]
    unit = st.floats(0.0, 1.0)
    pts = []
    for kind in draw(st.lists(st.sampled_from(["edge", "vertex", "inside", "boundary"]),
                              min_size=1, max_size=12)):
        if kind == "vertex":
            pts.append(mesh.vertices[draw(st.integers(0, mesh.nv - 1))])
            continue
        if kind == "inside":
            w = np.array([draw(st.floats(0.01, 1.0)) for _ in range(3)])
            corners = mesh.triangle_coords(draw(st.integers(0, mesh.nt - 1)))
            pts.append(w @ corners / w.sum())
            continue
        if kind == "edge":
            k = draw(st.integers(0, mesh.nt - 1))
            j = draw(st.integers(0, 2))
            a, b = mesh.vertices[mesh.triangles[k, [j, (j + 1) % 3]]]
            pts.append(a + draw(unit) * (b - a))
            continue
        a, b = mesh.vertices[mesh.boundary_edges[draw(st.integers(0, mesh.nbe - 1))]]
        outward = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
        out = draw(st.one_of(st.just(0.0), st.floats(1e-9, 0.5)))
        pts.append(a + draw(unit) * (b - a) + out * outward)
    pts = np.array(pts)
    hints = np.array(draw(st.lists(st.integers(-2, mesh.nt + 2),
                                   min_size=len(pts), max_size=len(pts))))
    return mesh, pts, hints


@settings(max_examples=150, deadline=None)
@given(probe=probe_points())
def test_locate_matches_scan_for_any_hint(probe):
    mesh, pts, hints = probe
    tri, bary = locate_point(mesh, pts)
    want = [_scan_for_point(mesh, p) for p in pts]
    assert tri.tolist() == [-1 if w is None else w[0] for w in want]
    for hint in (hints, int(hints[0])):
        tri_h, bary_h = locate_point(mesh, pts, hint)
        assert np.array_equal(tri_h, tri)
        assert np.array_equal(bary_h[tri >= 0], bary[tri >= 0])
    for p, h, k, lam in zip(pts, hints, tri, bary):
        one = locate_point(mesh, p, hint=int(h))
        if k < 0:
            assert one is None
        else:
            assert one[0] == k and np.array_equal(one[1], lam)
            assert lam.min() >= 0.0 and lam.sum() == pytest.approx(1.0, abs=1e-15)


def test_locate_many_edge_points_matches_scan():
    # every edge midpoint of a grid in one batch: more edge points than
    # one chunk of the lowest-index search, each in its lowest triangle
    mesh = build_rect_mesh(30, 30, 3.0, 2.0)
    edges = mesh.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    pts = mesh.vertices[edges].mean(axis=1)
    assert pts.shape[0] > mesh_module._EDGE_CHUNK
    tri, _ = locate_point(mesh, pts)
    assert tri.tolist() == [_scan_for_point(mesh, p)[0] for p in pts]


def mesh_of(vertices, tris, labelled=None) -> TriMesh:
    """The mesh of the triangles ``tris``, without the vertices they do not
    use.  The labelled boundary edges are ``labelled`` (vertex pairs in the
    numbering of ``vertices``), or by default every edge of one triangle."""
    used = np.unique(tris)
    renumber = np.full(len(vertices), -1)
    renumber[used] = np.arange(used.size)
    tris = renumber[tris]
    if labelled is None:
        # an edge used by one triangle is a boundary edge; keeping the
        # direction it has in that counterclockwise triangle puts the domain
        # on its left
        directed = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        _, inverse, count = np.unique(np.sort(directed, axis=1), axis=0,
                                      return_inverse=True, return_counts=True)
        edges = directed[count[inverse.ravel()] == 1]
    else:
        edges = renumber[labelled]
    return TriMesh(vertices[used], tris, edges, np.ones(len(edges), dtype=np.int64))


def l_shaped_mesh(n: int = 9) -> TriMesh:
    """Unit square without its upper-right quadrant: a reflex corner at
    (0.5, 0.5), so the domain is not convex."""
    square = build_rect_mesh(n, n, 1.0, 1.0)
    centroids = square.vertices[square.triangles].mean(axis=1)
    return mesh_of(square.vertices, square.triangles[
        ~((centroids[:, 0] > 0.5) & (centroids[:, 1] > 0.5))])


def annulus(n: int, r_in: float) -> TriMesh:
    """The disk of ``n`` boundary vertices without its triangles whose
    centroid lies within ``r_in`` of the centre, labelled on the outer
    circle only: its hole is bounded by free edges that carry no label."""
    disk = build_disk_mesh(n)
    centroids = disk.vertices[disk.triangles].mean(axis=1)
    return mesh_of(disk.vertices, disk.triangles[np.hypot(*centroids.T) >= r_in],
                   disk.boundary_edges)


def slit_square(half: int = 3) -> TriMesh:
    """The unit square cut from (0.5, 0) to (0.5, 0.5): the triangles right
    of the cut take their own copies of the vertices on it, below its tip,
    so the cut is two free edges deep, one up and one down."""
    n = 2 * half + 1
    square = build_rect_mesh(n, n, 1.0, 1.0)
    x, y = square.vertices.T
    cut = np.flatnonzero((x == 0.5) & (y < 0.5))
    copy = np.arange(square.nv)
    copy[cut] = square.nv + np.arange(cut.size)
    tris = square.triangles.copy()
    right = square.vertices[tris].mean(axis=1)[:, 0] > 0.5
    tris[right] = copy[tris[right]]
    return mesh_of(np.vstack([square.vertices, square.vertices[cut]]), tris)


def two_squares(n: int = 4) -> TriMesh:
    """Two unit squares one unit apart: two loops of free edges."""
    square = build_rect_mesh(n, n, 1.0, 1.0)
    return mesh_of(np.vstack([square.vertices, square.vertices + [2.0, 0.0]]),
                   np.vstack([square.triangles, square.triangles + square.nv]))


def segment_distance(p, a, b):
    t = min(max(np.dot(p - a, b - a) / np.dot(b - a, b - a), 0.0), 1.0)
    return float(np.hypot(*(a + t * (b - a) - p)))


@settings(max_examples=20, deadline=None)
@example(half=4, seed=20260822)
@given(half=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_non_convex_location_and_projection(half, seed):
    # an odd vertex count puts a grid line through the reflex corner
    mesh = l_shaped_mesh(2 * half + 1)
    assert not mesh.convex
    assert mesh.total_area == pytest.approx(0.75, abs=1e-14)
    rng = np.random.default_rng(seed)

    scans = []

    def counted_scan(m, p):
        scans.append(p)
        return _scan_for_point(m, p)

    # around and inside the notch, on the grid lines through the reflex corner
    # and at the vertices
    grid = np.linspace(0.3, 1.1, 17)
    lines = np.array([(x, y) for x in grid for y in grid])
    pts = np.vstack([lines, rng.uniform(-0.1, 1.1, size=(300, 2)), mesh.vertices])
    want = [_scan_for_point(mesh, p) for p in pts]
    want_tri = np.array([-1 if w is None else w[0] for w in want])
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mesh_module, "_scan_for_point", counted_scan)
        for hint in (None, rng.integers(0, mesh.nt, size=len(pts))):
            tri, _ = locate_point(mesh, pts, hint)
            assert np.array_equal(tri, want_tri)
    assert scans  # walks that stepped off a boundary edge took the fallback

    inside = pts[want_tri >= 0]
    assert np.array_equal(project_to_domain(mesh, inside), inside)
    outside = pts[want_tri < 0]
    assert outside.size
    pulled = project_to_domain(mesh, outside)
    assert np.all(locate_point(mesh, pulled)[0] >= 0)
    segments = mesh.vertices[mesh.boundary_edges]
    for p, q in zip(outside, pulled):
        nearest = min(segment_distance(p, a, b) for a, b in segments)
        assert np.hypot(*(q - p)) == pytest.approx(nearest, rel=1e-12, abs=1e-15)


def test_project_to_domain(disk100):
    inside = project_to_domain(disk100, np.array([1.1, 0.0]))
    assert np.hypot(*inside) <= 1.0 + 1e-12
    assert locate_point(disk100, inside) is not None
    # an interior point passes through untouched
    same = project_to_domain(disk100, np.array([0.2, 0.1]))
    assert np.allclose(same, [0.2, 0.1])
    # a point that is not finite has no closest point, as locate_point finds
    # no triangle for it
    for bad in ([np.nan, 0.0], [[0.2, 0.1], [0.0, np.inf]]):
        with pytest.raises(ValueError, match="finite"):
            project_to_domain(disk100, np.array(bad))


def test_projection_scratch_does_not_grow_with_the_boundary(traced_peak):
    # the nearest-segment search takes its points in chunks sized by points
    # times boundary edges
    mesh = build_disk_mesh(400)
    ang = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
    outside = 1.001 * np.column_stack([np.cos(ang), np.sin(ang)])
    assert traced_peak(project_to_domain, mesh, outside) <= 2e6


def test_load_flips_clockwise(tmp_path):
    path = tmp_path / "cw.msh"
    path.write_text(
        "3 1 3\n"
        "0 0\n1 0\n0 1\n"
        "1 3 2 0\n"
        "1 2 1\n2 3 1\n3 1 1\n"
    )
    m = load_mesh(path)
    assert m.nt == 1
    assert m.areas[0] > 0


def test_load_rejects_truncated(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_text("3 1 3\n0 0\n1 0\n")
    with pytest.raises(ValueError):
        load_mesh(path)


def test_load_rejects_bad_index(tmp_path):
    path = tmp_path / "bad2.msh"
    path.write_text(
        "3 1 3\n0 0\n1 0\n0 1\n"
        "1 2 9 0\n"
        "1 2 1\n2 3 1\n3 1 1\n"
    )
    with pytest.raises(ValueError):
        load_mesh(path)


def test_neighbors_consistent(disk60):
    nb = disk60.neighbors
    for k in range(disk60.nt):
        for j in range(3):
            other = nb[k, j]
            if other >= 0:
                assert k in nb[other]


def edge_dictionary_neighbors(mesh):
    """neighbors by brute force: match each triangle edge with the earlier
    unmatched edge on the same two vertices."""
    want = np.full((mesh.nt, 3), -1)
    unmatched = {}
    for k, tri in enumerate(mesh.triangles.tolist()):
        for j in range(3):
            edge = frozenset((tri[(j + 1) % 3], tri[(j + 2) % 3]))
            if edge in unmatched:
                k2, j2 = unmatched.pop(edge)
                want[k, j], want[k2, j2] = k2, k
            else:
                unmatched[edge] = (k, j)
    return want


@settings(max_examples=40, deadline=None)
@given(mesh=st.one_of(
    st.builds(build_rect_mesh, st.integers(2, 12), st.integers(2, 12),
              st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
    st.builds(build_disk_mesh, st.integers(8, 120)),
    st.builds(l_shaped_mesh)))
# a grid row that holds no centroid
@example(mesh=build_rect_mesh(12, 2, 1.0, 1.0))
def test_neighbor_and_grid_tables(mesh):
    assert np.array_equal(mesh.neighbors, edge_dictionary_neighbors(mesh))

    lo, scale, g = mesh._grid
    cells = mesh._cell_tri
    assert cells.shape == (g * g,)
    # no cell is empty
    assert np.all((cells >= 0) & (cells < mesh.nt))
    # a cell whose centre lies in the mesh starts at a triangle containing it
    index = np.arange(g * g)
    centres = lo + (np.column_stack([index % g, index // g]) + 0.5) / scale
    inside = locate_point(mesh, centres)[0] >= 0
    bary = mesh.barycentric(cells[inside], centres[inside])
    assert np.all(bary >= -mesh_module._BARY_TOL)
    # every other cell takes the table of centroids: a cell holding centroids
    # stores the highest-index triangle among them
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    ix, iy = np.minimum(np.floor((centroids - lo) * scale), g - 1).astype(int).T
    table = np.full((g, g), -1)
    for k, (x, y) in enumerate(zip(ix, iy)):
        table[y, x] = k
    # an empty cell takes the nearest stored cell of its row, the left one on
    # a tie; in a row with none, the cell of the nearest row that has one in
    # its column, the lower row on a tie
    rows = table.copy()
    for y in range(g):
        stored = np.flatnonzero(table[y] >= 0).tolist()
        for x in np.flatnonzero(table[y] < 0).tolist():
            if stored:
                rows[y, x] = table[y, min(stored, key=lambda s: (abs(s - x), s))]
    full = np.flatnonzero((table >= 0).any(axis=1)).tolist()
    want = rows.copy()
    for y in np.flatnonzero(~(table >= 0).any(axis=1)).tolist():
        want[y] = rows[min(full, key=lambda r: (abs(r - y), r))]
    want = want.ravel()
    assert np.array_equal(mesh._build_cell_table(centroids), want)
    assert np.array_equal(cells[~inside], want[~inside])
    # a stored triangle's centroid lies in its cell
    stored = np.flatnonzero(table.ravel() >= 0)
    width = 1.0 / scale
    low = lo + np.column_stack([stored % g, stored // g]) * width
    c = centroids[want[stored]]
    assert np.all((c >= low - 1e-9 * width) & (c <= low + (1.0 + 1e-9) * width))


def unlabelled(mesh: TriMesh) -> TriMesh:
    """``mesh`` rebuilt with no labelled boundary edges: its boundary is
    known only from the triangles, as the edges with no neighbour."""
    return TriMesh(mesh.vertices, mesh.triangles, np.zeros((0, 2), dtype=np.int64),
                   np.zeros(0, dtype=np.int64))


def moved(mesh: TriMesh, stretch, shift) -> TriMesh:
    """``mesh`` stretched along each axis and shifted, which takes its
    vertices off the round numbers where the grid lines of a unit square
    fall."""
    return TriMesh(mesh.vertices * stretch + shift, mesh.triangles,
                   mesh.boundary_edges, mesh.boundary_labels)


def free_edge_pairs(mesh: TriMesh):
    """Vertices (a, b) of the edges that belong to one triangle, oriented so
    that the domain lies on their left."""
    k, j = np.nonzero(edge_dictionary_neighbors(mesh) < 0)
    return mesh.triangles[k, (j + 1) % 3], mesh.triangles[k, (j + 2) % 3]


def free_edges(mesh: TriMesh):
    """End points (a, b) of the free edges."""
    a, b = free_edge_pairs(mesh)
    return mesh.vertices[a], mesh.vertices[b]


def segments_meet_boxes(a, b, low, high):
    """[i, c] is True when the closed segment a[i] b[i] meets the closed box
    low[c] .. high[c] (Liang-Barsky clipping)."""
    enter = np.zeros((len(a), len(low)))
    leave = np.ones((len(a), len(low)))
    for axis in (0, 1):
        start, step = a[:, axis, None], (b - a)[:, axis, None]
        lo, hi = low[None, :, axis], high[None, :, axis]
        flat = step == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo, t_hi = (lo - start) / step, (hi - start) / step
        first = np.where(flat, np.where((lo <= start) & (start <= hi), 0.0, 2.0),
                         np.minimum(t_lo, t_hi))
        last = np.where(flat, 1.0, np.maximum(t_lo, t_hi))
        enter, leave = np.maximum(enter, first), np.minimum(leave, last)
    return enter <= leave


def cell_boxes(mesh: TriMesh, cells: np.ndarray):
    """Lower and upper corners of bucket-grid cells."""
    lo, scale, g = mesh._grid
    index = np.column_stack([cells % g, cells // g])
    return lo + index / scale, lo + (index + 1) / scale


@settings(max_examples=40, deadline=None)
@given(mesh=st.one_of(
    st.builds(build_rect_mesh, st.integers(2, 12), st.integers(2, 12),
              st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
    st.builds(build_disk_mesh, st.integers(8, 120)),
    st.builds(unlabelled, st.builds(build_disk_mesh, st.integers(8, 120))),
    st.builds(moved, st.builds(l_shaped_mesh, st.integers(2, 12)),
              st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)).map(np.array),
              st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(np.array))))
def test_cell_map_sides(mesh):
    lo, scale, g = mesh._grid
    side = mesh._cell_side
    assert side.shape == (g * g,) and set(np.unique(side)) <= {-1, 0, 1}
    # no free edge meets a cell said to be inside or outside
    sided = np.flatnonzero(side != 0)
    low, high = cell_boxes(mesh, sided)
    assert not segments_meet_boxes(*free_edges(mesh), low, high).any()
    # so each such cell lies wholly on its side: its corners are located there
    for cells, inside in ((sided[side[sided] > 0], True),
                          (sided[side[sided] < 0], False)):
        low, high = cell_boxes(mesh, cells)
        for x, y in ((low, low), (low, high), (high, low), (high, high)):
            corners = np.column_stack([x[:, 0], y[:, 1]])
            assert np.all((locate_point(mesh, corners)[0] >= 0) == inside)


OUTSIDE_MESHES = {"rect": build_rect_mesh(7, 5, 2.0, 1.0), "disk": build_disk_mesh(40),
                  "l-shape": l_shaped_mesh(9),
                  "moved l-shape": moved(l_shaped_mesh(11), [0.3, 0.7], [0.1, -0.2]),
                  "unlabelled": unlabelled(build_disk_mesh(40))}
# distances off a free edge along its outward normal: under, near and over
# the location slack
NORMAL_OFFSETS = (0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-9, -1e-9)


def near_boundary_points(mesh: TriMesh, t, offsets):
    """Points a fraction ``t`` along each free edge, moved by each of
    ``offsets`` along the edge's outward normal."""
    a, b = free_edges(mesh)
    d = b - a
    outward = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
    return np.concatenate([a + s * d + off * outward for s in t for off in offsets])


def grid_points(mesh: TriMesh, u):
    """Points on the lines of the bucket grid: its cell corners (u = 0) and
    points a fraction ``u`` of a cell along every line."""
    lo, scale, g = mesh._grid
    i = np.arange(g + 1)
    x = lo[0] + np.add.outer(i, [0.0, u]).ravel() / scale[0]
    y = lo[1] + np.add.outer(i, [0.0, u]).ravel() / scale[1]
    return np.column_stack([np.repeat(x, y.size), np.tile(y, x.size)])


def box_points(mesh: TriMesh, off, along):
    """Points ``off`` cells outside the grid's box (inside it when
    negative), a fraction ``along`` of the way along each of its sides."""
    lo, scale, g = mesh._grid
    off, along = np.broadcast_arrays(np.asarray(off, dtype=float)[:, None],
                                     g * np.asarray(along, dtype=float)[None, :])
    off, along = off.ravel(), along.ravel()
    cells = np.concatenate([np.column_stack(p) for p in (
        (-off, along), (g + off, along), (along, -off), (along, g + off))])
    return lo + cells / scale


@pytest.mark.parametrize("name", sorted(OUTSIDE_MESHES))
def test_outside_test_matches_locate_everywhere(name):
    mesh = OUTSIDE_MESHES[name]
    pad = mesh_module._CELL_PAD
    pts = np.vstack([
        near_boundary_points(mesh, np.linspace(0.0, 1.0, 7), NORMAL_OFFSETS),
        mesh.vertices, grid_points(mesh, 0.37),
        box_points(mesh, [-2 * pad, -pad / 2, 0.0, pad / 2, 2 * pad],
                   np.linspace(0.0, 1.0, 13)),
        [[1e6, 0.0], [-1e300, 1e300], [np.nan, 0.0], [0.0, np.inf],
         [-np.inf, np.nan]]])
    np.testing.assert_array_equal(mesh_module._outside(mesh, pts),
                                  locate_point(mesh, pts)[0] < 0)


@st.composite
def outside_probes(draw):
    """A mesh and points on and next to its free edges, at its vertices, on
    the lines of its bucket grid and next to its box, far off, and not
    finite."""
    mesh = OUTSIDE_MESHES[draw(st.sampled_from(sorted(OUTSIDE_MESHES)))]
    pad = mesh_module._CELL_PAD
    unit = st.floats(0.0, 1.0)
    pick = lambda pts: pts[draw(st.integers(0, len(pts) - 1))]  # noqa: E731
    pts = []
    for kind in draw(st.lists(st.sampled_from(["free edge", "vertex", "grid", "box",
                                               "far", "not finite"]),
                              min_size=1, max_size=16)):
        if kind == "free edge":
            pts.append(pick(near_boundary_points(
                mesh, [draw(unit)], [draw(st.sampled_from(NORMAL_OFFSETS))])))
        elif kind == "vertex":
            pts.append(pick(mesh.vertices))
        elif kind == "grid":
            pts.append(pick(grid_points(mesh, draw(unit))))
        elif kind == "box":
            off = draw(st.sampled_from([0.0, pad / 2, -pad / 2, 2 * pad, 1.0]))
            pts.append(pick(box_points(mesh, [off], [draw(unit)])))
        elif kind == "far":
            pts.append([draw(st.floats(-1e300, 1e300)), draw(st.floats(-1e300, 1e300))])
        else:
            special = st.sampled_from([np.nan, np.inf, -np.inf])
            pts.append(draw(st.permutations(
                [draw(special), draw(st.one_of(special, st.floats(-2.0, 2.0)))])))
    return mesh, np.array(pts, dtype=float)


@settings(max_examples=200, deadline=None)
@given(probe=outside_probes())
def test_outside_test_matches_locate(probe):
    mesh, pts = probe
    np.testing.assert_array_equal(mesh_module._outside(mesh, pts),
                                  locate_point(mesh, pts)[0] < 0)


MOVED_L_SHAPES = st.builds(
    moved, st.builds(l_shaped_mesh, st.integers(2, 12)),
    st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)).map(np.array),
    st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(np.array))
# meshes whose free edges are not their labelled boundary edges, or are
# more than one loop
ANNULI = st.builds(annulus, st.integers(30, 120), st.floats(0.3, 0.85))
FREE_EDGE_MESHES = st.one_of(ANNULI, st.builds(slit_square, st.integers(1, 6)),
                             st.builds(two_squares, st.integers(2, 6)))


@settings(max_examples=40, deadline=None)
@example(mesh=build_disk_mesh(60))
@given(mesh=st.one_of(
    st.builds(build_rect_mesh, st.integers(2, 12), st.integers(2, 12),
              st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
    ANNULI, st.builds(l_shaped_mesh, st.integers(2, 12)),
    st.builds(slit_square, st.integers(1, 6)),
    st.builds(unlabelled, st.builds(build_disk_mesh, st.integers(8, 120))),
    st.builds(moved, st.builds(build_rect_mesh, st.integers(2, 12),
                               st.integers(2, 12), st.just(1.0), st.just(1.0)),
              st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)).map(np.array),
              st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(np.array))))
def test_save_load_round_trip(tmp_path_factory, mesh):
    # region tags of both signs, so that their round trip shows
    mesh = TriMesh(mesh.vertices, mesh.triangles, mesh.boundary_edges,
                   mesh.boundary_labels, np.arange(mesh.nt) % 7 - 3)
    path = tmp_path_factory.mktemp("mesh") / "round.msh"
    save_mesh(mesh, path)
    again = load_mesh(path)
    assert np.array_equal(again.vertices, mesh.vertices)
    assert np.array_equal(again.triangles, mesh.triangles)
    assert np.array_equal(again.boundary_edges, mesh.boundary_edges)
    assert np.array_equal(again.boundary_labels, mesh.boundary_labels)
    assert np.array_equal(again.regions, mesh.regions)
    assert np.array_equal(again.neighbors, mesh.neighbors)
    assert np.array_equal(again._free_edges, mesh._free_edges)
    assert again.convex == mesh.convex
    assert np.array_equal(again._cell_side, mesh._cell_side)


def convex_by_definition(mesh: TriMesh) -> bool:
    """The free edges form one closed loop, and every vertex lies on the
    left of, or on, the line of every free edge."""
    a, b = free_edge_pairs(mesh)
    after = dict(zip(a.tolist(), b.tolist()))
    v, steps = after[int(a[0])], 1
    while v in after and v != a[0] and steps <= len(a):
        v, steps = after[v], steps + 1
    if len(after) != len(a) or v != a[0] or steps != len(a):
        return False
    d = mesh.vertices[b] - mesh.vertices[a]
    rel = mesh.vertices[:, None, :] - mesh.vertices[a][None]
    cross = d[:, 0] * rel[..., 1] - d[:, 1] * rel[..., 0]
    size = np.ptp(mesh.vertices, axis=0).max()
    return bool(np.all(cross >= -1e-9 * size * np.hypot(d[:, 0], d[:, 1])))


@settings(max_examples=80, deadline=None)
@example(mesh=slit_square())
@example(mesh=two_squares())
@example(mesh=annulus(100, 0.9))
@example(mesh=unlabelled(build_disk_mesh(40)))
@given(mesh=st.one_of(
    st.builds(build_rect_mesh, st.integers(2, 12), st.integers(2, 12),
              st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
    st.builds(build_disk_mesh, st.integers(8, 120)),
    st.builds(unlabelled, st.builds(build_disk_mesh, st.integers(8, 120))),
    MOVED_L_SHAPES, FREE_EDGE_MESHES))
def test_convex_matches_its_definition(mesh):
    assert mesh.convex == convex_by_definition(mesh)


def nearest_on_segments(pts, a, b):
    """Distance from each point to the nearest of the segments a[i] b[i]."""
    d = b - a
    t = ((pts[:, None] - a) * d).sum(axis=2) / (d * d).sum(axis=1)
    gap = a + np.clip(t, 0.0, 1.0)[..., None] * d - pts[:, None]
    return np.hypot(gap[..., 0], gap[..., 1]).min(axis=1)


@settings(max_examples=15, deadline=None)
@example(mesh=annulus(100, 0.9), seed=1)
@example(mesh=slit_square(), seed=1)
@given(mesh=FREE_EDGE_MESHES, seed=st.integers(0, 2**32 - 1))
def test_location_and_projection_read_the_free_edges(mesh, seed):
    # a step off the free edges of a hole or a slit proves nothing, and a
    # point in a hole is pulled to the hole's rim when that is nearest
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pad = 0.1 * (hi - lo)
    pts = np.random.default_rng(seed).uniform(lo - pad, hi + pad, size=(4000, 2))
    want = np.array([-1 if (w := _scan_for_point(mesh, p)) is None else w[0]
                     for p in pts])
    np.testing.assert_array_equal(locate_point(mesh, pts)[0], want)
    outside = pts[want < 0]
    assert outside.size
    pulled = project_to_domain(mesh, outside)
    assert np.all(locate_point(mesh, pulled)[0] >= 0)
    np.testing.assert_allclose(np.hypot(*(pulled - outside).T),
                               nearest_on_segments(outside, *free_edges(mesh)),
                               rtol=1e-12, atol=1e-15)


def test_a_point_in_the_hole_projects_to_the_inner_rim():
    mesh = annulus(40, 0.5)
    pulled = project_to_domain(mesh, np.array([0.1, 0.0]))
    assert np.hypot(*pulled) == pytest.approx(0.494, abs=1e-3)
    assert locate_point(mesh, pulled) is not None


def test_an_unlabelled_mesh_projects_onto_its_free_edges():
    mesh = unlabelled(build_disk_mesh(40))
    np.testing.assert_array_equal(project_to_domain(mesh, np.array([1.2, 0.0])),
                                  [1.0, 0.0])
