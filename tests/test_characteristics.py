import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dcgm import characteristics
from dcgm.characteristics import (VelocityField, build_traced_points,
                                  rotation_field, trace_backward,
                                  trace_forward, uniform_field)
from dcgm.fem import assemble_mass
from dcgm import mesh as mesh_module
from dcgm.mesh import (build_disk_mesh, build_rect_mesh, locate_point,
                       project_to_domain)
from dcgm.quadrature import midedge_rule, nine_point_rule
from test_mesh import MOVED_L_SHAPES, annulus, l_shaped_mesh, unlabelled


def test_rotation_closed_form():
    # second-order step of the rigid rotation from (1, 0)
    p = trace_forward(rotation_field(), np.array([1.0, 0.0]), 0.1, 1.0)
    assert abs(p[0] - 0.995) <= 1e-14
    assert abs(p[1] - 0.1) <= 1e-14
    q = trace_backward(rotation_field(), np.array([1.0, 0.0]), 0.1, 1.0)
    assert abs(q[0] - 0.995) <= 1e-14
    assert abs(q[1] + 0.1) <= 1e-14


def test_uniform_translation_exact():
    f = uniform_field(0.4, -0.3)
    p = trace_forward(f, np.array([1.0, 2.0]), 0.5, 1.0)
    assert np.allclose(p, [1.2, 1.85], atol=1e-15)
    q = trace_backward(f, p, 0.5, 1.0)
    assert np.allclose(q, [1.0, 2.0], atol=1e-15)


def test_sigma_scales_quadratic_term():
    rot = rotation_field()
    x = np.array([1.0, 0.0])
    half = trace_forward(rot, x, 0.1, 0.5)
    # sigma = 0.5 halves the dt^2 correction: 1 - 0.5*0.01/2
    assert half[0] == pytest.approx(1.0 - 0.5 * 0.005, abs=1e-15)
    assert half[1] == pytest.approx(0.1, abs=1e-15)


def test_batch_matches_scalar(rng):
    rot = rotation_field()
    pts = rng.uniform(-0.7, 0.7, size=(64, 2))
    batch = trace_forward(rot, pts, 0.07, 1.0)
    for i in range(64):
        single = trace_forward(rot, pts[i], 0.07, 1.0)
        assert np.allclose(batch[i], single, atol=1e-15)


def test_round_trip_third_order(rng):
    # backward after forward cancels through O(dt^2); residue is O(dt^3)
    rot = rotation_field()
    pts = rng.uniform(-0.5, 0.5, size=(32, 2))
    for dt in (0.1, 0.05):
        there = trace_forward(rot, pts, dt, 1.0)
        back = trace_backward(rot, there, dt, 1.0)
        worst = float(np.max(np.hypot(*(back - pts).T)))
        assert worst <= 2.0 * dt ** 3


def test_full_turn_drift_second_order():
    rot = rotation_field()
    drifts = []
    for n in (33, 66, 133):
        dt = 2.0 * math.pi / n
        p = np.array([0.35, 0.0])
        for _ in range(n):
            p = trace_forward(rot, p, dt, 1.0)
        drifts.append(float(np.hypot(p[0] - 0.35, p[1])))
    assert drifts[0] > drifts[1] > drifts[2]
    # at least linear decay in dt; the quadratic tracer actually gives ~4x
    assert drifts[0] / drifts[1] >= 1.9
    assert drifts[1] / drifts[2] >= 1.9


def test_velocity_field_without_jacobian():
    f = VelocityField(value=lambda x, y: (np.ones_like(x), np.zeros_like(y)),
                      jacobian=None)
    p = trace_forward(f, np.array([0.0, 0.0]), 0.25, 1.0)
    # no jacobian: the quadratic correction drops out
    assert np.allclose(p, [0.25, 0.0], atol=1e-15)


def test_traced_points_weights(disk100):
    rule = nine_point_rule()
    tp = build_traced_points(disk100, rotation_field(), rule, dt=0.1)
    assert tp.n_points == disk100.nt * len(rule)
    # the node weights partition each triangle's area and the clamped
    # barycentrics of each image sum to one, so the dual transport's column
    # sums are the mass matrix's, and no entry is negative
    column_sums = np.asarray(tp.transport.sum(axis=0)).ravel()
    np.testing.assert_allclose(column_sums, disk100.vertex_mass, rtol=1e-13)
    assert tp.transport.data.min() >= 0.0


def test_traced_points_projection_fraction(disk100):
    # rotation is tangent to the circle; only a thin boundary rim projects
    tp = build_traced_points(disk100, rotation_field(), nine_point_rule(), dt=2.0 * math.pi / 33)
    assert np.mean(tp.fwd_projected) <= 0.02
    assert np.mean(tp.bwd_projected) <= 0.02


@pytest.mark.parametrize("dual", [True, False], ids=["dual", "primal"])
def test_a_velocity_that_is_not_finite_is_refused_before_location(dual,
                                                                  monkeypatch):
    def refuse(*a, **k):
        raise AssertionError("an image was located")

    for name in ("_outside", "locate_point", "project_to_domain"):
        monkeypatch.setattr(characteristics, name, refuse)
    mesh = build_rect_mesh(6, 5, 1.0, 0.8)
    with pytest.raises(ValueError, match="velocity field"):
        build_traced_points(mesh, uniform_field(math.nan, 0.0),
                            nine_point_rule(), 0.1, dual=dual)


@pytest.mark.parametrize("dt, sigma, want", [
    (math.nan, 1.0, "^dt must be finite"), (math.inf, 1.0, "^dt must be finite"),
    # a negative step would build the transport of the reversed flow
    (-0.1, 1.0, "^dt must be > 0"), (0.0, 1.0, "^dt must be > 0"),
    (0.1, math.nan, "^sigma must be finite"), (0.1, "1", "^sigma must be finite"),
], ids=["dt-nan", "dt-inf", "dt-negative", "dt-zero", "sigma-nan", "sigma-str"])
def test_a_bad_step_is_refused_before_tracing(dt, sigma, want, monkeypatch):
    # a NaN dt was blamed on the velocity field, a negative one accepted
    def refuse(*a, **k):
        raise AssertionError("an image was traced or located")

    for name in ("_trace", "_outside", "locate_point", "project_to_domain"):
        monkeypatch.setattr(characteristics, name, refuse)
    mesh = build_rect_mesh(6, 5, 1.0, 0.8)
    with pytest.raises(ValueError, match=want):
        build_traced_points(mesh, uniform_field(0.3, 0.1), nine_point_rule(),
                            dt, sigma)


def test_traced_points_pure_rotation_small_dt(disk100):
    # infinitesimal step: every forward image is its source, so the dual
    # transport P_src^T W P_src is the mass matrix (the rule is exact for
    # products of two P1 functions)
    tp = build_traced_points(disk100, rotation_field(), nine_point_rule(), dt=1e-8)
    mass = assemble_mass(disk100)
    gap = abs(tp.transport - mass).max()
    assert gap <= 1e-7 * abs(mass).max()


def _whole_array_transport(mesh, field, rule, dt, dual):
    """The transport and both flag arrays built in one pass over all points:
    ``locate_point``, then ``project_to_domain`` and ``locate_point`` on the
    outside images of the direction read, then one sparse product."""
    src = (rule.points @ mesh._tri_xy).reshape(-1, 2)
    read = "fwd" if dual else "bwd"
    flags = {}
    for side, trace in (("fwd", trace_forward), ("bwd", trace_backward)):
        images = trace(field, src, dt)
        tri, bary = locate_point(mesh, images)
        flags[side] = outside = tri < 0
        if side == read:
            tri[outside], bary[outside] = locate_point(
                mesh, project_to_domain(mesh, images[outside]))
            image = (tri, bary)

    def interpolation(tri, bary):
        n = tri.shape[0]
        return sp.csr_matrix((bary.ravel(), mesh.triangles[tri].ravel(),
                              np.arange(0, 3 * n + 1, 3)), shape=(n, mesh.nv))

    nq = len(rule)
    w = sp.diags((mesh.areas[:, None] * rule.weights).ravel())
    p_src = interpolation(np.repeat(np.arange(mesh.nt), nq),
                          np.tile(rule.points, (mesh.nt, 1)))
    p_img = interpolation(*image)
    transport = p_img.T @ w @ p_src if dual else p_src.T @ w @ p_img
    return transport.tocsr(), flags["fwd"], flags["bwd"]


def radial_field(rate: float) -> VelocityField:
    """a(x) = rate x: images move away from the origin for rate > 0 and
    towards it for rate < 0."""
    return VelocityField(
        value=lambda x, y: (rate * np.asarray(x, dtype=float),
                            rate * np.asarray(y, dtype=float)),
        jacobian=lambda x, y: np.broadcast_to(rate * np.eye(2), np.shape(x) + (2, 2)))


TRANSLATION = (uniform_field(0.6, 0.45),) * 2


@pytest.mark.parametrize("mesh, fields, dt, leaves", [
    (build_disk_mesh(30), TRANSLATION, 0.2, True),
    (l_shaped_mesh(9), TRANSLATION, 0.2, True),
    (build_rect_mesh(7, 6, 1.0, 0.8), TRANSLATION, 0.2, True),
    # most images land far past the bucket grid
    (build_disk_mesh(30), (uniform_field(1.5, 1.2),) * 2, 1.0, True),
    # the field keeps the images read inside the disk and takes the others
    # out: contraction for the dual build, expansion for the primal one
    (unlabelled(build_disk_mesh(30)), (radial_field(-1.0), radial_field(1.0)), 0.2,
     False),
    # images read leave a mesh without labelled boundary edges, and are
    # projected onto its free edges
    (unlabelled(build_disk_mesh(30)), (rotation_field(),) * 2, 0.6, True),
], ids=["disk", "l-shape", "rect", "far", "unlabelled", "unlabelled-rotation"])
def test_located_images_match_locate_project_locate(mesh, fields, dt, leaves,
                                                    monkeypatch):
    # blocks of a few triangles: each point is located on its own, so the
    # blocked build differs from the whole-array one only in the order its
    # transport is summed.  A translation pushes images out on one side
    # going forward and on the other going back; on the L-shape some leave
    # through the notch.
    monkeypatch.setattr(characteristics, "_BUILD_BLOCK", 64)
    for rule in (midedge_rule(), nine_point_rule()):
        assert mesh.nt * len(rule) > 2 * 64
        for dual, field in zip((True, False), fields):
            tp = build_traced_points(mesh, field, rule, dt, dual=dual)
            want, fwd, bwd = _whole_array_transport(mesh, field, rule, dt, dual)
            read, unread = (fwd, bwd) if dual else (bwd, fwd)
            assert unread.any() and read.any() == leaves
            np.testing.assert_array_equal(tp.fwd_projected, fwd)
            np.testing.assert_array_equal(tp.bwd_projected, bwd)
            assert np.mean(tp.fwd_projected) == np.mean(fwd)
            got = tp.transport.copy()
            got.sort_indices()
            want.sort_indices()
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_allclose(got.data, want.data, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("dual", [True, False], ids=["dual", "primal"])
def test_small_blocks_build_the_default_build(dual, monkeypatch):
    # a build of many small blocks against the default build, one block
    # here: the same flags, and a transport summed in another order
    mesh, field = build_disk_mesh(60), uniform_field(0.6, 0.45)
    assert mesh.nt * 9 <= characteristics._BUILD_BLOCK
    whole = build_traced_points(mesh, field, nine_point_rule(), 0.2, dual=dual)
    monkeypatch.setattr(characteristics, "_BUILD_BLOCK", 64)
    tp = build_traced_points(mesh, field, nine_point_rule(), 0.2, dual=dual)
    assert whole.fwd_projected.any() and whole.bwd_projected.any()
    np.testing.assert_array_equal(tp.fwd_projected, whole.fwd_projected)
    np.testing.assert_array_equal(tp.bwd_projected, whole.bwd_projected)
    got, want = tp.transport.copy(), whole.transport.copy()
    got.sort_indices()
    want.sort_indices()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_allclose(got.data, want.data, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("dual", [True, False], ids=["dual", "primal"])
def test_unread_images_are_walked_only_near_the_boundary(dual, monkeypatch):
    # the flags of the direction not read come from the cell map: only its
    # images in cells the boundary may cross reach the walk
    mesh = build_disk_mesh(60)
    field, rule, dt = rotation_field(), nine_point_rule(), 2.0 * math.pi / 33
    walked = []
    walk = mesh_module._walk_block

    def counted(mesh, pts):
        walked.append(len(pts))
        return walk(mesh, pts)

    monkeypatch.setattr(mesh_module, "_walk_block", counted)
    tp = build_traced_points(mesh, field, rule, dt, dual=dual)
    n = tp.n_points
    src = (rule.points @ mesh._tri_xy).reshape(-1, 2)
    unread = (trace_backward if dual else trace_forward)(field, src, dt)
    # the cell of each unread image; an image off the grid counts as near
    lo, scale, g = mesh._grid
    cell = np.floor((unread - lo) * scale).astype(int)
    on_grid = np.all((cell >= 0) & (cell < g), axis=1)
    near = ~on_grid
    near[on_grid] = mesh._cell_side[cell[on_grid, 1] * g + cell[on_grid, 0]] == 0
    # the read images are walked once, and the outside ones at most twice
    # more: in the projection's own outside test and after it
    outside = int((tp.fwd_projected if dual else tp.bwd_projected).sum())
    bound = n + 2 * outside + int(near.sum())
    assert 0 < outside and bound < 2 * n
    assert sum(walked) <= bound


@pytest.mark.parametrize("dual", [True, False], ids=["dual", "primal"])
def test_transport_build_scratch_is_bounded(dual, monkeypatch, traced_peak):
    # each block's product joins a running sum as it is built, so the peak
    # stays near what the result keeps however many blocks there are
    monkeypatch.setattr(characteristics, "_BUILD_BLOCK", 4096)
    mesh = build_disk_mesh(400)
    built = []
    peak = traced_peak(lambda: built.append(build_traced_points(
        mesh, rotation_field(), nine_point_rule(), 2.0 * math.pi / 133,
        dual=dual)))
    tp = built[0]
    t = tp.transport
    assert tp.n_points > 20 * 4096 and t.has_canonical_format
    kept = sum(a.nbytes for a in (t.data, t.indices, t.indptr,
                                  tp.fwd_projected, tp.bwd_projected))
    assert peak <= 2.5 * kept


@settings(max_examples=40, deadline=None)
@given(mesh=st.one_of(
           st.builds(build_rect_mesh, st.integers(2, 12), st.integers(2, 12),
                     st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
           st.builds(build_disk_mesh, st.integers(8, 60)),
           st.builds(unlabelled, st.builds(build_disk_mesh, st.integers(8, 60))),
           MOVED_L_SHAPES, st.builds(annulus, st.integers(30, 60), st.floats(0.3, 0.85))),
       field=st.one_of(st.just(rotation_field()),
                       st.builds(uniform_field, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                       st.builds(radial_field, st.floats(-1.0, 1.0))),
       dt=st.floats(0.2, 1.0), dual=st.booleans(),
       rule=st.sampled_from([midedge_rule(), nine_point_rule()]))
def test_transport_keeps_the_mass_identity(mesh, field, dt, dual, rule):
    # images that leave a mesh, one without labels or with a hole too, are
    # projected onto its free edges and located there, so the dual
    # transport's column sums and the primal one's row sums are the vertex
    # masses, whatever the field
    tp = build_traced_points(mesh, field, rule, dt, dual=dual)
    sums = np.asarray(tp.transport.sum(axis=0 if dual else 1)).ravel()
    np.testing.assert_allclose(sums, mesh.vertex_mass, rtol=1e-13, atol=0.0)
    assert tp.transport.data.min() >= 0.0
