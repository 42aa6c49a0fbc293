import math

import numpy as np
import pytest

from dcgm.characteristics import (VelocityField, build_traced_points,
                                  rotation_field, trace_backward,
                                  trace_forward, uniform_field)
from dcgm.mesh import build_disk_mesh, locate_point, project_to_domain
from dcgm.quadrature import midedge_rule, nine_point_rule
from test_mesh import l_shaped_mesh


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
    # quadrature weights partition the mesh area
    assert tp.weights.sum() == pytest.approx(disk100.total_area, rel=1e-13)
    assert np.allclose(tp.src_bary.sum(axis=1), 1.0, atol=1e-12)
    _, fwd_bary = tp.located("fwd")
    assert np.allclose(fwd_bary.sum(axis=1), 1.0, atol=1e-12)
    assert fwd_bary.min() >= -1e-12


def test_traced_points_projection_fraction(disk100):
    # rotation is tangent to the circle; only a thin boundary rim projects
    tp = build_traced_points(disk100, rotation_field(), nine_point_rule(), dt=2.0 * math.pi / 33)
    assert tp.fwd_projected_fraction <= 0.02
    assert tp.bwd_projected_fraction <= 0.02


def test_traced_points_pure_rotation_small_dt(disk100):
    tp = build_traced_points(disk100, rotation_field(), nine_point_rule(), dt=1e-8)
    # infinitesimal step: forward locations coincide with the sources
    src = np.einsum("qi,tid->tqd", nine_point_rule().points,
                    disk100.vertices[disk100.triangles]).reshape(-1, 2)
    fwd_tri, fwd_bary = tp.located("fwd")
    v = disk100.vertices[disk100.triangles[fwd_tri]]
    fwd = np.einsum("pi,pid->pd", fwd_bary, v)
    assert np.max(np.hypot(*(fwd - src).T)) < 1e-7


@pytest.mark.parametrize("mesh", [build_disk_mesh(30), l_shaped_mesh(9)],
                         ids=["disk", "l-shape"])
def test_located_images_match_locate_project_locate(mesh):
    # a translation pushes images out on one side going forward and on the
    # other going back; on the L-shape some leave through the notch
    field, dt = uniform_field(0.6, 0.45), 0.2
    rule = midedge_rule()
    tp = build_traced_points(mesh, field, rule, dt)
    src = (rule.points @ mesh._tri_xy).reshape(-1, 2)
    for side, images in (("fwd", trace_forward(field, src, dt)),
                         ("bwd", trace_backward(field, src, dt))):
        tri, bary = locate_point(mesh, images)
        outside = tri < 0
        assert outside.any()
        np.testing.assert_array_equal(getattr(tp, f"{side}_projected"), outside)
        assert getattr(tp, f"{side}_projected_fraction") == np.mean(outside)
        tri[outside], bary[outside] = locate_point(
            mesh, project_to_domain(mesh, images[outside]))
        got_tri, got_bary = tp.located(side)
        np.testing.assert_array_equal(got_tri, tri)
        np.testing.assert_array_equal(got_bary, bary)
        # a second read gives the kept arrays
        assert tp.located(side)[0] is got_tri
