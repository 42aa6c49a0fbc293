"""Rotating-bell harness: exact solution, runs, studies, diagnostics."""
import math
import warnings

import numpy as np
import pytest

from dcgm import bench, linalg
from dcgm.bench import (SCHEMES, BellParams, T, _prepare, bell_at_time,
                        bell_center, compare_schemes, convergence_study,
                        cross_section, discontinuous_test, exact_bell,
                        exact_report, fit_order, run_one_turn,
                        run_one_turn_dirichlet, stability_constant)
from dcgm.characteristics import rotation_field
from dcgm.fem import integral, interpolate, nu_dt_norm, stability_form
from dcgm.linalg import SolutionHistory
from dcgm.mesh import build_disk_mesh
from dcgm.schemes import CflWarning, SchemeConfig, dcgm_prepare, pcgm_step


def test_scheme_names():
    assert SCHEMES == ("dcgm", "pcgm", "supg", "centered")


def test_params_validation():
    with pytest.raises(ValueError):
        BellParams(r=-1.0)
    with pytest.raises(ValueError):
        BellParams(nu=0.0)
    # 0 is a step count, not "unset": it must not fall back to N // 3
    for bad in (0, -3):
        with pytest.raises(ValueError, match="n_steps"):
            BellParams(n_steps=bad)
    assert BellParams(n_steps=1).n_steps == 1
    assert BellParams(n_steps=np.int64(4)).n_steps == 4


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, field", [
    (lambda: SchemeConfig(nu=1e-3, dt=1.0, solver_tol=-1.0), "solver_tol"),
    (lambda: SchemeConfig(nu=1e-3, dt=1.0, solver_tol=NAN), "solver_tol"),
    (lambda: SchemeConfig(nu=INF, dt=1.0), "nu"),
    (lambda: SchemeConfig(nu=1e-3, dt=INF), "dt"),
    (lambda: SchemeConfig(nu=1e-3, dt=NAN), "dt"),
    (lambda: BellParams(x0=(NAN, 0.0)), "x0"),
    (lambda: BellParams(x0=(0.1, INF)), "x0"),
    (lambda: BellParams(x0=(0.1, 0.2, 0.3)), "x0"),
    (lambda: BellParams(x0=0.35), "x0"),
    (lambda: BellParams(x0=("a", "b")), "x0"),  # not numbers at all
    (lambda: BellParams(x0=object()), "x0"),
    (lambda: BellParams(r=INF), "r"),
    (lambda: BellParams(nu=INF), "nu"),
    (lambda: BellParams(solver_tol=-1.0), "solver_tol"),
    (lambda: BellParams(sigma=2), "sigma"),
    (lambda: BellParams(quadrature="gauss97"), "quadrature"),
    (lambda: BellParams(n_steps=2.5), "n_steps"),
    (lambda: BellParams(n_steps=3.0), "n_steps"),
    (lambda: BellParams(n_steps=True), "n_steps"),
    # a bool is no number, though True == 1 and True in (0, 1)
    pytest.param(lambda: SchemeConfig(nu=1e-3, dt=1.0, sigma=True), "sigma",
                 id="config-sigma-True"),
    pytest.param(lambda: SchemeConfig(nu=1e-3, dt=1.0, sigma=np.False_),
                 "sigma", id="config-sigma-np.False_"),
    pytest.param(lambda: SchemeConfig(nu=1e-3, dt=1.0, sigma=1 + 0j), "sigma",
                 id="config-sigma-complex"),  # 1 + 0j in (0, 1) held too
    pytest.param(lambda: BellParams(sigma=True), "sigma", id="sigma-True"),
    pytest.param(lambda: BellParams(r=True), "r", id="r-True"),
])
def test_bad_numbers_fail_at_construction(make, field):
    # a value no run can use is refused when the record is built, naming
    # its field, not in the middle of a run
    with pytest.raises(ValueError, match=rf"^(unknown )?{field}\b"):
        make()


@pytest.mark.parametrize("make, field", [
    (lambda: BellParams(r="20"), "r"),
    (lambda: BellParams(nu="1e-3"), "nu"),
    (lambda: BellParams(solver_tol=None), "solver_tol"),
    (lambda: SchemeConfig(nu=1e-3, dt="1"), "dt"),
])
def test_a_parameter_that_is_no_number_names_itself(make, field):
    # refused as a ValueError naming the field, not numpy's TypeError
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        make()


def test_bell_center_rotates():
    p = BellParams()
    c = bell_center(p, math.pi / 2.0)
    assert np.allclose(c, [0.0, 0.35], atol=1e-14)
    c = bell_center(p, 2.0 * math.pi)
    assert np.allclose(c, [0.35, 0.0], atol=1e-13)


def test_exact_bell_initial():
    p = BellParams()
    assert exact_bell(p, np.array([0.35, 0.0]), 0.0) == pytest.approx(1.0, abs=1e-15)
    # amplitude decays by the similarity factor 1/(1 + 4 nu r t)
    t = 2.0 * math.pi
    peak = exact_bell(p, bell_center(p, t), t)
    assert peak == pytest.approx(1.0 / (1.0 + 4.0 * p.nu * p.r * t), rel=1e-13)


def test_exact_bell_mass(disk100):
    # a Gaussian of sharpness r carries mass pi/r up to the domain cutoff
    u = interpolate(disk100, bell_at_time(BellParams(), 0.0))
    assert integral(u) == pytest.approx(math.pi / 20.0, rel=1e-3)


def test_run_one_turn_smoke():
    r = run_one_turn(60, "dcgm", BellParams())
    assert r.scheme == "dcgm"
    assert r.n_steps == 20
    assert r.l2_err < 0.06
    assert r.mass_drift <= 1e-10
    assert r.min_value >= -1e-3
    assert 0.5 < r.max_value < 0.7
    assert len(r.mass_history) == r.n_steps + 1
    assert len(r.diagnostics) == r.n_steps


def _refuse(*args, **kwargs):
    raise AssertionError("the run started building")


def test_run_rejects_unknown_scheme(monkeypatch):
    # before the mesh is built; the private Dirichlet name is no scheme of
    # run_one_turn either
    monkeypatch.setattr(bench, "build_disk_mesh", _refuse)
    for scheme in ("upwind", "dcgm-dirichlet"):
        with pytest.raises(ValueError, match="choose from") as err:
            run_one_turn(400, scheme, BellParams())
        assert all(name in str(err.value) for name in SCHEMES)


def test_convergence_study_checks_every_size_first(monkeypatch):
    monkeypatch.setattr(bench, "run_one_turn", _refuse)
    with pytest.raises(ValueError, match=r"^N must be a whole number >= 8"):
        convergence_study("dcgm", [60, 80, 5])


def test_convergence_study_rejects_a_repeated_size(monkeypatch):
    # three turns of one mesh give a slope through a single point
    monkeypatch.setattr(bench, "run_one_turn", _refuse)
    with pytest.raises(ValueError, match=r"^N repeats a mesh size"):
        convergence_study("dcgm", [30, 30, 30])


def test_turn_peak_is_its_state_plus_the_step_loop(traced_peak):
    # the set-up and report kernels work in bounded blocks, so the peak is
    # the turn's live state plus the step loop's working set
    assert traced_peak(run_one_turn, 400, "dcgm") <= 16.5e6


def test_exact_report_is_floor():
    ex = exact_report(100)
    run = run_one_turn(100, "dcgm", BellParams())
    assert ex.l2_err < run.l2_err
    assert ex.scheme == "exact"


def test_dirichlet_variant_matches_interior():
    # boundary values are ~1e-88 here; the variant must track the plain run
    a = run_one_turn(60, "dcgm", BellParams())
    b = run_one_turn_dirichlet(60, BellParams())
    assert abs(b.l2_err - a.l2_err) <= 0.05 * a.l2_err
    assert b.scheme == "dcgm-dirichlet"


def test_fit_order_exact_slope():
    h = np.array([0.1, 0.05, 0.025])
    e = 3.0 * h ** 2
    assert fit_order(h, e) == pytest.approx(2.0, abs=1e-12)


def test_convergence_study_needs_three():
    with pytest.raises(ValueError):
        convergence_study("dcgm", [100, 200])


def test_compare_schemes_rows():
    rows = compare_schemes(60)
    assert [r.scheme for r in rows] == ["dcgm", "pcgm", "supg", "centered", "exact"]
    # all four schemes run on the same step budget
    assert rows[3].n_steps == rows[0].n_steps
    assert rows[0].l2_err < rows[2].l2_err


def test_compare_schemes_builds_one_mesh(monkeypatch):
    built = []

    def counted(n):
        built.append(n)
        return build_disk_mesh(n)

    monkeypatch.setattr(bench, "build_disk_mesh", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CflWarning)
        rows = compare_schemes(40)
    assert built == [40]
    assert len({id(r.final.mesh) for r in rows}) == 1


def test_compare_rows_equal_separate_runs():
    # sharing the mesh changes no bit of any row
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CflWarning)
        rows = compare_schemes(40)
        alone = [run_one_turn(40, s) for s in SCHEMES] + [exact_report(40)]
    for a, b in zip(rows, alone):
        assert a.scheme == b.scheme
        assert np.array_equal(a.final.coeffs, b.final.coeffs)
        assert ([d.solver.iterations for d in a.diagnostics]
                == [d.solver.iterations for d in b.diagnostics])
        assert np.array_equal(a.mass_history, b.mass_history)
        assert np.array_equal(a.norm_history, b.norm_history)
        assert a.l2_err == b.l2_err


@pytest.mark.parametrize("mesh", [build_disk_mesh(41), "disk"],
                         ids=["41 boundary vertices", "no TriMesh"])
def test_a_wrong_mesh_is_refused_before_any_work(monkeypatch, mesh):
    monkeypatch.setattr(bench, "_prepare", _refuse)
    monkeypatch.setattr(bench, "interpolate", _refuse)
    with pytest.raises(ValueError, match=r"^mesh must be a TriMesh with N = 40"):
        run_one_turn(40, "dcgm", mesh=mesh)
    with pytest.raises(ValueError, match=r"^mesh must be a TriMesh with N = 40"):
        exact_report(40, mesh=mesh)


def test_discontinuous_bounds():
    r = discontinuous_test(100)
    assert r.min_value >= -0.05
    assert r.max_value <= 1.05
    assert r.mass_drift <= 1e-10
    # indicator of radius sqrt(0.15): area pi * 0.15 up to interpolation
    assert r.initial_mass == pytest.approx(math.pi * 0.15, rel=0.05)


def test_params_nu_sets_the_discontinuous_run():
    r = discontinuous_test(40, BellParams(nu=1e-2))
    assert r.nu == 1e-2
    # dt always comes from one turn over the step count, 40 // 3 = 13 here
    assert r.dt == 2.0 * math.pi / 13


def test_numerics_reach_the_run():
    # sigma and quadrature of the bell parameters are the ones the scheme
    # steps with: the same steps run by hand match bit for bit
    params = BellParams(n_steps=4, sigma=0, quadrature="midedge")
    report = run_one_turn(40, "pcgm", params)
    mesh = report.final.mesh
    config = SchemeConfig(params.nu, T / 4, sigma=0, quadrature="midedge")
    op = dcgm_prepare(mesh, rotation_field(), config, dual=False)
    u, history = interpolate(mesh, bell_at_time(params, 0.0)), SolutionHistory()
    for _ in range(4):
        u, _diag = pcgm_step(op, u, history)
    assert np.array_equal(report.final.coeffs, u.coeffs)
    default = run_one_turn(40, "pcgm", BellParams(n_steps=4))
    assert not np.array_equal(default.final.coeffs, u.coeffs)


def test_boundary_crossing_bounds():
    # started at (0.5, 0), the bell's support reaches the boundary during
    # the turn, exercising the projection of traced points
    base = run_one_turn(100, "dcgm", BellParams())
    r = run_one_turn(100, "dcgm", BellParams(x0=(0.5, 0.0)))
    assert r.l2_err <= 3.0 * base.l2_err
    assert r.min_value >= -1e-4


def test_cross_section():
    run = run_one_turn(60, "dcgm", BellParams())
    cut = cross_section(run.final)
    assert len(cut) > 180
    xs = np.array([p[0] for p in cut])
    us = np.array([p[1] for p in cut])
    assert np.all(np.diff(xs) > 0)
    assert np.all(np.isfinite(us))
    # the bell straddles y = 0, so the cut must see most of its height
    assert us.max() > 0.5 * run.max_value


def test_stability_constant_bounded():
    r = run_one_turn(100, "dcgm", BellParams())
    c = stability_constant(r)
    assert np.isfinite(c)
    assert c < 10.0



def test_stability_constant_needs_a_step():
    # the exact row of a comparison has no steps and so no norm growth
    with pytest.raises(ValueError, match="at least one step"):
        stability_constant(exact_report(40))


@pytest.mark.parametrize("scheme", SCHEMES + ("dcgm-dirichlet",))
def test_each_turn_makes_one_solution_history(history_log, scheme):
    # every solve of a turn starts from the one history of its run loop
    made, added = history_log
    params = BellParams(n_steps=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CflWarning)
        if scheme == "dcgm-dirichlet":
            run_one_turn_dirichlet(60, params)
        else:
            run_one_turn(60, scheme, params)
    assert len(made) == 1
    assert len(added) == 4 and set(map(id, added)) == {id(made[0])}


def test_solution_history_changes_only_rounding():
    # a turn starts each solve from the run's recent solutions; the same
    # steps from u_prev alone agree to well within the solver tolerance
    params = BellParams(n_steps=40)
    report = run_one_turn(80, "dcgm", params)
    mesh = report.final.mesh
    op, step = _prepare("dcgm", mesh, SchemeConfig(nu=params.nu, dt=report.dt))
    plain = interpolate(mesh, bell_at_time(params, 0.0))
    iterations = 0
    for _ in range(params.n_steps):
        plain, diag = step(op, plain)
        iterations += diag.solver.iterations
    scale = np.abs(plain.coeffs).max()
    assert np.abs(report.final.coeffs - plain.coeffs).max() <= 1e-10 * scale
    assert report.mass_drift <= 1e-10
    assert sum(d.solver.iterations for d in report.diagnostics) < iterations


@pytest.mark.parametrize("scheme", SCHEMES)
def test_norm_history_reads_the_stability_form(scheme):
    # every run reads its norm from its operator's form: the first and last
    # entries match that form bit for bit, and a stability form assembled
    # apart, which the Eulerian prepares sum in another order, to rounding
    params = BellParams(n_steps=4)
    report = run_one_turn(60, scheme, params)
    mesh = report.final.mesh
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CflWarning)
        op, _ = _prepare(scheme, mesh, SchemeConfig(nu=report.nu, dt=report.dt))
    form = stability_form(mesh, report.nu, report.dt)
    u0 = interpolate(mesh, bell_at_time(params, 0.0))
    for u, norm in ((u0, report.norm_history[0]),
                    (report.final, report.norm_history[-1])):
        assert norm == nu_dt_norm(u, op.form)
        assert norm == pytest.approx(nu_dt_norm(u, form), rel=1e-15, abs=0.0)


def test_bicgstab_window_saves_iterations(monkeypatch):
    # a centered turn started from BiCGStab's 32-solution history takes
    # fewer iterations than the same turn with CG's window of 16
    def iterations():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CflWarning)
            report = run_one_turn(100, "centered")
        return sum(d.solver.iterations for d in report.diagnostics)

    wide = iterations()
    monkeypatch.setattr(linalg, "_BICGSTAB_WINDOW", 16)
    assert wide < iterations()


def test_runs_assemble_no_stability_form(monkeypatch):
    # every prepare hands its run the stability form, so no run builds one
    def refuse(*args, **kwargs):
        raise AssertionError("the run assembled its stability form")

    monkeypatch.setattr(bench, "stability_form", refuse)
    params = BellParams(n_steps=4)
    for scheme in SCHEMES:
        run_one_turn(60, scheme, params)
    run_one_turn_dirichlet(60, params)
