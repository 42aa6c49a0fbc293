"""Exactness and sanity checks for the triangle quadrature rules.

The independent reference is a tensor Gauss-Legendre rule pushed through the
square-to-triangle collapse x = s, y = t(1 - s) with Jacobian (1 - s); at 12
points per direction it integrates any polynomial appearing here without
error, and it shares no nodes or construction with the rules under test.
"""
import numpy as np
import pytest

from dcgm.quadrature import (QuadratureRule, integrate_on_triangle,
                             midedge_rule, nine_point_rule, rule_by_name)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


def reference_integral(f):
    """Integral of f over the unit reference triangle via the collapsed square."""
    s = _GL_X[:, None]
    t = _GL_X[None, :]
    w = _GL_W[:, None] * _GL_W[None, :] * (1.0 - s)
    return float(np.sum(w * f(s, t * (1.0 - s))))


def triangle_integral(tri, f):
    # affine map of the reference rule; exactness carries over
    v0, v1, v2 = tri
    e1 = v1 - v0
    e2 = v2 - v0
    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])

    def pulled(s, t):
        x = v0[0] + e1[0] * s + e2[0] * t
        y = v0[1] + e1[1] * s + e2[1] * t
        return f(x, y)

    return 2.0 * area * reference_integral(pulled)


def apply_rule(rule, tri, f):
    v0, v1, v2 = tri
    pts = rule.points @ np.array([v0, v1, v2])
    e1 = v1 - v0
    e2 = v2 - v0
    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    return area * float(np.dot(rule.weights, f(pts[:, 0], pts[:, 1])))


def test_weights_normalized():
    for rule in (midedge_rule(), nine_point_rule()):
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert (rule.weights > 0).all()
        bary_sums = rule.points.sum(axis=1)
        assert np.allclose(bary_sums, 1.0, atol=1e-15)


def test_rule_sizes_and_degrees():
    assert len(midedge_rule()) == 3
    assert len(nine_point_rule()) == 9
    assert midedge_rule().degree == 2
    assert nine_point_rule().degree == 5


def test_rule_by_name():
    assert len(rule_by_name("midedge")) == 3
    assert len(rule_by_name("ninepoint")) == 9
    with pytest.raises(ValueError):
        rule_by_name("gauss97")


def test_reference_monomials_frozen():
    # closed forms on the unit reference triangle
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert apply_rule(midedge_rule(), ref, lambda x, y: x * x) == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert apply_rule(midedge_rule(), ref, lambda x, y: x * y) == pytest.approx(1.0 / 24.0, abs=1e-15)
    assert apply_rule(nine_point_rule(), ref, lambda x, y: x ** 4) == pytest.approx(1.0 / 30.0, abs=1e-14)
    assert apply_rule(nine_point_rule(), ref, lambda x, y: x ** 2 * y ** 2) == pytest.approx(1.0 / 180.0, abs=1e-15)


def _random_triangles(rng, count):
    tris = []
    while len(tris) < count:
        t = rng.uniform(-2.0, 2.0, size=(3, 2))
        e1 = t[1] - t[0]
        e2 = t[2] - t[0]
        if abs(e1[0] * e2[1] - e1[1] * e2[0]) > 1e-2:
            tris.append(t)
    return tris


def test_midedge_degree2_random_triangles(rng):
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for tri in _random_triangles(rng, 100):
        for a, b in exps:
            f = lambda x, y: x ** a * y ** b
            want = triangle_integral(tri, f)
            got = apply_rule(midedge_rule(), tri, f)
            # 1e-13 relative with a unit floor for near-cancelling integrands
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_ninepoint_degree4_random_triangles(rng):
    exps = [(a, b) for a in range(5) for b in range(5) if a + b <= 4]
    for tri in _random_triangles(rng, 100):
        for a, b in exps:
            f = lambda x, y: x ** a * y ** b
            want = triangle_integral(tri, f)
            got = apply_rule(nine_point_rule(), tri, f)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_integrate_on_triangle_linear():
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    got = integrate_on_triangle(nine_point_rule(), tri, lambda x, y: 3.0 + x - y)
    assert got == pytest.approx(6.0, rel=1e-14)


def test_invalid_rule_construction():
    pts = np.array([[0.5, 0.5, 0.0]])
    with pytest.raises(ValueError):
        QuadratureRule(points=pts, weights=np.array([-1.0]), degree=1)
    with pytest.raises(ValueError):
        QuadratureRule(points=np.zeros((2, 2)), weights=np.array([0.5, 0.5]),
                       degree=1)
