"""P1 finite-element building blocks: interpolation, assembly, norms."""
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcgm.fem import (FieldP1, _stiffness_local, assemble_mass,
                      assemble_stiffness, basis_gradients, evaluate,
                      h1_seminorm, integral, interpolate, l2_error, l2_norm,
                      nu_dt_norm, stability_form, write_field_csv)
from dcgm.heston import expectation
from dcgm.mesh import TriMesh, build_disk_mesh, build_rect_mesh, locate_point
from dcgm.quadrature import midedge_rule, nine_point_rule


def reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    return TriMesh(verts, tris, edges, np.ones(3, dtype=np.int32))


def test_reference_mass_matrix():
    m = reference_triangle()
    M = assemble_mass(m).toarray()
    want = (1.0 / 24.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    assert np.allclose(M, want, atol=1e-15)


def test_reference_stiffness_matrix():
    m = reference_triangle()
    K = assemble_stiffness(m).toarray()
    want = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(K, want, atol=1e-14)


def test_basis_gradients_reference():
    m = reference_triangle()
    g = basis_gradients(m)[0]
    assert np.allclose(g[0], [-1.0, -1.0], atol=1e-15)
    assert np.allclose(g[1], [1.0, 0.0], atol=1e-15)
    assert np.allclose(g[2], [0.0, 1.0], atol=1e-15)
    assert np.allclose(g.sum(axis=0), 0.0, atol=1e-15)


def test_mass_total(unit_square):
    M = assemble_mass(unit_square)
    ones = np.ones(unit_square.nv)
    assert ones @ (M @ ones) == pytest.approx(1.0, abs=1e-12)


def test_stiffness_annihilates_constants(unit_square):
    K = assemble_stiffness(unit_square)
    ones = np.ones(unit_square.nv)
    assert np.max(np.abs(K @ ones)) < 1e-14


def test_stiffness_dirichlet_energy(unit_square):
    # f = x: |grad f|^2 integrates to the area
    f = interpolate(unit_square, lambda x, y: np.asarray(x))
    assert f.coeffs @ (assemble_stiffness(unit_square) @ f.coeffs) == pytest.approx(1.0, rel=1e-12)


def test_interpolate_and_evaluate(unit_square):
    f = interpolate(unit_square, lambda x, y: 2.0 * np.asarray(x) - np.asarray(y))
    loc = locate_point(unit_square, np.array([0.37, 0.21]))
    # linear functions are reproduced exactly by P1 interpolation
    assert evaluate(f, loc) == pytest.approx(2.0 * 0.37 - 0.21, abs=1e-13)
    with pytest.raises(ValueError):
        evaluate(f, None)


def scalar_only(x, y):
    """x + y for scalar arguments only: arrays take the pointwise path."""
    if np.ndim(x) > 0:
        raise TypeError("scalars only")
    return x + y


def test_interpolate_pointwise_fallback(unit_square):
    # a callable that rejects arrays still interpolates via the scalar path
    f = interpolate(unit_square, scalar_only)
    g = interpolate(unit_square, lambda x, y: np.asarray(x) + np.asarray(y))
    assert np.allclose(f.coeffs, g.coeffs, atol=1e-15)


def test_interpolate_refuses_a_value_that_is_not_finite(unit_square):
    # a NaN datum fails here, not at the first solve of a run after its
    # whole prepare
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            interpolate(unit_square, lambda x, y: np.where(np.asarray(x) > 0.5,
                                                           bad, 0.0))


def test_interpolate_does_not_hide_a_broken_array_path(unit_square):
    # only TypeError and ValueError mean "scalars only"; any other error of
    # the array path is a bug of the callable and must surface
    def broken(x, y):
        if np.ndim(x) > 0:
            raise RuntimeError("array path is broken")
        return x + y

    with pytest.raises(RuntimeError, match="array path"):
        interpolate(unit_square, broken)


def test_l2_error_pointwise_fallback(unit_square):
    f = interpolate(unit_square, lambda x, y: np.asarray(x) ** 2)
    want = l2_error(f, lambda x, y: np.asarray(x) + np.asarray(y), nine_point_rule())
    assert want > 0.1
    assert l2_error(f, scalar_only, nine_point_rule()) == want


def test_integral_linear(unit_square):
    f = interpolate(unit_square, lambda x, y: np.asarray(x))
    assert integral(f) == pytest.approx(0.5, rel=1e-13)


def test_norms_f_equals_x(unit_square):
    f = interpolate(unit_square, lambda x, y: np.asarray(x))
    assert l2_norm(f) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert h1_seminorm(f) == pytest.approx(1.0, rel=1e-12)
    nd = nu_dt_norm(f, stability_form(unit_square, nu=0.01, dt=0.5))
    assert nd == pytest.approx(math.sqrt(1.0 / 3.0 + 0.005), rel=1e-12)


@st.composite
def meshes_and_fields(draw):
    """A rectangle (random grid and extents) or a disk mesh, and a signed
    random P1 field on it."""
    if draw(st.booleans()):
        extent = st.floats(0.01, 100.0)
        mesh = build_rect_mesh(draw(st.integers(2, 12)), draw(st.integers(2, 12)),
                               draw(extent), draw(extent))
    else:
        mesh = build_disk_mesh(draw(st.integers(8, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-3, 1e3))
    return FieldP1(mesh, scale * rng.uniform(-1.0, 1.0, mesh.nv))


@settings(max_examples=60, deadline=None)
@given(case=meshes_and_fields(), nu=st.floats(0.0, 1.0), dt=st.floats(0.0, 10.0),
       rule=st.sampled_from([nine_point_rule(), midedge_rule()]))
def test_prepared_functionals_match_direct_sums(case, nu, dt, rule):
    # the vector and matrix forms against the per-triangle sums they replace;
    # a signed field can integrate to ~0, so the linear functionals are
    # compared relative to the same sums taken of |u|
    mesh, u = case.mesh, case.coeffs
    per_tri = u[mesh.triangles]
    direct = np.sum(mesh.areas * per_tri.mean(axis=1))
    size = np.sum(mesh.areas * np.abs(per_tri).mean(axis=1))
    assert abs(integral(case) - direct) <= 1e-14 * size

    want = math.sqrt(l2_norm(case) ** 2 + nu * dt * h1_seminorm(case) ** 2)
    assert nu_dt_norm(case, stability_form(mesh, nu, dt)) == pytest.approx(
        want, rel=1e-13)

    def f(x, y):
        return np.cos(np.asarray(x)) + np.asarray(y) ** 2

    direct = size = 0.0
    for k, tri in enumerate(mesh.triangles):
        for lam, w in zip(rule.points, rule.weights):
            x, y = lam @ mesh.vertices[tri]
            term = mesh.areas[k] * w * (math.cos(x) + y * y) * (lam @ u[tri])
            direct += term
            size += abs(term)
    assert abs(expectation(case, f, rule) - direct) <= 1e-13 * size


@settings(max_examples=30, deadline=None)
@given(case=meshes_and_fields())
def test_stiffness_kernel_matches_einsum(case):
    # the per-coordinate products sum the same two terms as the contraction
    mesh = case.mesh
    g = basis_gradients(mesh)
    want = np.einsum("tid,tjd->tij", g, g) * mesh.areas[:, None, None]
    assert np.array_equal(_stiffness_local(mesh), want)


def test_l2_error_self_is_zero(unit_square):
    f = interpolate(unit_square, lambda x, y: 1.0 + 0.5 * np.asarray(x))
    err = l2_error(f, lambda x, y: 1.0 + 0.5 * np.asarray(x), nine_point_rule())
    assert err < 1e-14


def test_l2_error_quadratic_floor():
    # interpolation error of x^2 on an n x n unit grid scales like h^2
    errs = []
    for n in (11, 21):
        m = build_rect_mesh(n, n, 1.0, 1.0)
        f = interpolate(m, lambda x, y: np.asarray(x) ** 2)
        errs.append(l2_error(f, lambda x, y: np.asarray(x) ** 2, nine_point_rule()))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_l2_error_scratch_is_bounded(traced_peak):
    # the quadrature runs in blocks of triangles, so its scratch does not
    # grow with the mesh
    mesh = build_disk_mesh(400)
    f = interpolate(mesh, lambda x, y: np.exp(-20.0 * (x * x + y * y)))

    def exact(x, y):
        return np.exp(-20.0 * ((x - 0.1) ** 2 + y * y))

    assert traced_peak(l2_error, f, exact, nine_point_rule()) <= 2e6


def test_stability_form_scratch_is_bounded(traced_peak):
    # int32 index pairs and one local array, summed in place
    mesh = build_disk_mesh(400)
    assert traced_peak(stability_form, mesh, 1e-3, 2.0 * math.pi / 133) <= 8e6


def test_field_validation(unit_square):
    with pytest.raises(ValueError):
        FieldP1(unit_square, np.zeros(unit_square.nv + 1))


def test_field_copy_isolated(unit_square):
    f = interpolate(unit_square, lambda x, y: np.asarray(x))
    g = f.copy()
    g.coeffs[0] = 99.0
    assert f.coeffs[0] != 99.0


def test_write_field_csv(tmp_path, unit_square):
    f = interpolate(unit_square, lambda x, y: np.asarray(x))
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "vertex_index,x,y,value"
    assert len(lines) == unit_square.nv + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[3]) == pytest.approx(float(first[1]))
