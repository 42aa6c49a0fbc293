"""Quadrature rules on triangles.

Rules are stored in barycentric coordinates with node weights normalized to
sum to one, so on a triangle T the integral estimate is

    integral_T f  ~  |T| * sum_i w_i f(x_i)

where x_i is the physical image of the i-th barycentric node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "midedge_rule",
    "nine_point_rule",
    "rule_by_name",
    "integrate_on_triangle",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Symmetric quadrature rule on the reference triangle.

    Attributes
    ----------
    points : ndarray, shape (n, 3)
        Barycentric coordinates of the nodes.
    weights : ndarray, shape (n,)
        Strictly positive node weights summing to one.  Multiply by the
        triangle area when integrating.
    degree : int
        Highest total polynomial degree integrated exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if pts.ndim != 2 or pts.shape[1] != 3 or wts.shape != (pts.shape[0],):
            raise ValueError("rule needs (n, 3) barycentric points and n weights")
        if np.any(wts <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")
        if abs(float(wts.sum()) - 1.0) > 1e-14:
            raise ValueError("quadrature weights must sum to 1")

    def __len__(self) -> int:
        return self.points.shape[0]


def _orbit3(a: float) -> list[tuple[float, float, float]]:
    """The three distinct permutations of the barycentric triple (a, a, 1-2a)."""
    b = 1.0 - 2.0 * a
    return [(a, a, b), (a, b, a), (b, a, a)]


def midedge_rule() -> QuadratureRule:
    """Three-point rule with nodes at the edge midpoints, weights 1/3.

    Exact for every polynomial of total degree <= 2.
    """
    return QuadratureRule(points=np.array(_orbit3(0.5)),
                          weights=np.full(3, 1.0 / 3.0), degree=2)


# Nine-point rule: three 3-fold symmetric orbits (a, a, 1-2a).  Exactness for
# all polynomials of total degree <= 5 reduces, by symmetry, to matching the
# triangle means of the symmetric invariants (e2 = l1 l2 + l1 l3 + l2 l3,
# e3 = l1 l2 l3, both constant on an orbit):
#
#   sum_m W_m            = 1          (W_m = 3 w_m, the orbit totals)
#   sum_m W_m g2(a_m)    = 1/4        g2(a) = 2a - 3a^2  (= e2 on the orbit)
#   sum_m W_m g3(a_m)    = 1/60       g3(a) = a^2 (1-2a) (= e3 on the orbit)
#   sum_m W_m g2(a_m)^2  = 1/15
#   sum_m W_m g2 g3(a_m) = 1/210
#
# Five equations in six unknowns leave a one-parameter family; pinning the
# first orbit at a = 1/2 makes the rule nest the mid-edge rule.  The remaining
# system was solved to 40 digits; all weights are positive and all nodes lie
# in the closed triangle.
_NINE_A2 = 0.4206391873714510556804815
_NINE_A3 = 0.09971525680514050208244798
_NINE_W1 = 0.04763783693562190841916711
_NINE_W2 = 0.1630607548867366949660453
_NINE_W3 = 0.1226347415109747299481209


def nine_point_rule() -> QuadratureRule:
    """Nine-point symmetric rule, positive weights, exact for degree <= 5.

    The first orbit sits at the edge midpoints, so the rule extends
    :func:`midedge_rule` with two interior orbits.
    """
    points = np.array(
        _orbit3(0.5) + _orbit3(_NINE_A2) + _orbit3(_NINE_A3)
    )
    weights = np.repeat([_NINE_W1, _NINE_W2, _NINE_W3], 3)
    # the solved weights sum to 1 only to solver precision; renormalize the
    # last digit so downstream mass identities are exact in floating point
    weights = weights / weights.sum()
    return QuadratureRule(points=points, weights=weights, degree=5)


_RULES = {"midedge": midedge_rule, "ninepoint": nine_point_rule}


def rule_by_name(name: str) -> QuadratureRule:
    """Look up a rule by its configuration name."""
    try:
        factory = _RULES[name]
    except KeyError:
        raise ValueError(
            f"unknown quadrature rule {name!r}; choose from {sorted(_RULES)}"
        ) from None
    return factory()


def integrate_on_triangle(rule: QuadratureRule, tri_vertices, f) -> float:
    """Approximate integral of ``f(x, y)`` over one triangle.

    Parameters
    ----------
    rule : QuadratureRule
    tri_vertices : array_like, shape (3, 2)
        Triangle corner coordinates.
    f : callable
        Scalar function of two floats.
    """
    verts = np.asarray(tri_vertices, dtype=float)
    if verts.shape != (3, 2):
        raise ValueError("tri_vertices must have shape (3, 2)")
    e1 = verts[1] - verts[0]
    e2 = verts[2] - verts[0]
    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    phys = rule.points @ verts
    acc = 0.0
    for w, (x, y) in zip(rule.weights, phys):
        acc += w * f(x, y)
    return area * acc
