"""Verification harness: rotating-bell runs, convergence, robustness tests.

The reference problem transports a Gaussian bell once around the origin by
the rigid rotation a = (-y, x) on the unit disk while it diffuses, and the
closed-form solution stays available:

    u(x, t) = exp(-r |x - c(t)|^2 / (1 + 4 nu r t)) / (1 + 4 nu r t)

with c(t) the initial center rotated by angle t.  One full turn (T = 2 pi)
returns the center to its start, so errors measure transport fidelity.

Defaults are the calibrated benchmark parameters: sharpness r = 20 and
nu = 1e-3, the pair consistent with the frozen acceptance targets (peak
after a turn 1/(1 + 8 pi nu r) = 0.665, integral pi/r = 0.157); see the
project notes for the calibration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .characteristics import rotation_field
from .fem import (
    FieldP1,
    integral,
    interpolate,
    l2_error,
    nu_dt_norm,
    stability_form,
)
from .linalg import SolutionHistory
from .mesh import TriMesh, build_disk_mesh, locate_point
from .quadrature import nine_point_rule
from .schemes import (
    DcgmOperator,
    SchemeConfig,
    StepDiagnostics,
    centered_prepare,
    centered_step,
    dcgm_dirichlet_prepare,
    dcgm_dirichlet_step,
    dcgm_prepare,
    dcgm_step,
    pcgm_step,
    supg_prepare,
    supg_step,
)

__all__ = [
    "BellParams",
    "RunReport",
    "exact_bell",
    "bell_center",
    "bell_at_time",
    "run_one_turn",
    "run_one_turn_dirichlet",
    "exact_report",
    "convergence_study",
    "fit_order",
    "compare_schemes",
    "discontinuous_test",
    "cross_section",
    "stability_constant",
    "SCHEMES",
]

SCHEMES = ("dcgm", "pcgm", "supg", "centered")
# final time of every bell run: one full turn of the rotation
T = 2.0 * math.pi
_SCHEME_DEFAULT = {f.name: f.default for f in fields(SchemeConfig)}


@dataclass(frozen=True)
class BellParams:
    """Everything one rotating-bell run reads; every run lasts one turn,
    ``T``, in steps of dt = T / n_steps.

    ``n_steps=None`` derives the step count from the mesh size as N // 3,
    which pairs the meshes 100/200/400 with 33/66/133 steps.  ``sigma``,
    ``quadrature`` and ``solver_tol`` are the :class:`SchemeConfig` fields
    of the same names, with the same defaults.
    """

    x0: tuple[float, float] = (0.35, 0.0)
    r: float = 20.0
    nu: float = 1e-3
    n_steps: int | None = None
    sigma: float = _SCHEME_DEFAULT["sigma"]
    quadrature: str = _SCHEME_DEFAULT["quadrature"]
    solver_tol: float = _SCHEME_DEFAULT["solver_tol"]

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (2,) or not np.isfinite(x0).all():
            raise ValueError("x0 must be a finite (x, y) pair")
        if not (np.isfinite(self.r) and self.r > 0.0):
            raise ValueError("r must be finite and > 0")
        if self.n_steps is not None and self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        _config(self, 1)  # SchemeConfig checks nu and the numerics


def _config(params: BellParams, n_steps: int) -> SchemeConfig:
    """The scheme parameters of a bell run of ``n_steps`` steps per turn."""
    return SchemeConfig(nu=params.nu, dt=T / n_steps, sigma=params.sigma,
                        quadrature=params.quadrature, solver_tol=params.solver_tol)


def bell_center(params: BellParams, t: float) -> np.ndarray:
    """Bell center at time t: the initial center advected by the rotation
    field, i.e. rotated counterclockwise by angle t."""
    c, s = math.cos(t), math.sin(t)
    x1, x2 = params.x0
    return np.array([x1 * c - x2 * s, x1 * s + x2 * c])


def exact_bell(params: BellParams, x, t: float):
    """Closed-form solution at points ``x`` (shape (..., 2)) and time ``t``."""
    x = np.asarray(x, dtype=float)
    out = bell_at_time(params, t)(x[..., 0], x[..., 1])
    return float(out) if out.ndim == 0 else out


def bell_at_time(params: BellParams, t: float):
    """The exact solution as an ``f(x, y)`` callable (for interpolation and
    error quadrature)."""
    c = bell_center(params, t)
    spread = 1.0 + 4.0 * params.nu * params.r * t

    def f(x, y):
        d2 = (np.asarray(x, dtype=float) - c[0]) ** 2 + (
            np.asarray(y, dtype=float) - c[1]
        ) ** 2
        return np.exp(-params.r * d2 / spread) / spread

    return f


@dataclass(eq=False)
class RunReport:
    """Outcome of one benchmark run, one table row plus step histories."""

    scheme: str
    n_boundary: int
    n_vertices: int
    n_steps: int
    nu: float
    dt: float
    h_max: float
    min_value: float
    max_value: float
    mass: float
    initial_mass: float
    l2_err: float
    wall_time: float
    mass_history: np.ndarray = field(repr=False)
    norm_history: np.ndarray = field(repr=False)
    diagnostics: list[StepDiagnostics] = field(default_factory=list, repr=False)
    final: FieldP1 | None = field(default=None, repr=False)

    @property
    def mass_drift(self) -> float:
        """Largest relative deviation of the mass from its initial value."""
        if self.initial_mass == 0.0:
            return float(np.max(np.abs(self.mass_history - self.initial_mass)))
        return float(
            np.max(np.abs(self.mass_history - self.initial_mass))
            / abs(self.initial_mass)
        )


def _n_steps(params: BellParams, N: int) -> int:
    """Steps per turn: ``params.n_steps``, or N // 3 when unset."""
    return params.n_steps if params.n_steps is not None else max(1, N // 3)


def _prepare(scheme: str, mesh: TriMesh, config: SchemeConfig):
    """Operator and step of ``scheme`` or "dcgm-dirichlet", rotation field."""
    rot = rotation_field()
    if scheme == "dcgm":
        return dcgm_prepare(mesh, rot, config), dcgm_step
    if scheme == "pcgm":
        return dcgm_prepare(mesh, rot, config, dual=False), pcgm_step
    if scheme == "supg":
        return supg_prepare(mesh, rot, config), supg_step
    if scheme == "centered":
        return centered_prepare(mesh, rot, config), centered_step
    if scheme == "dcgm-dirichlet":
        return dcgm_dirichlet_prepare(mesh, rot, config), dcgm_dirichlet_step
    raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")


def _run_steps(op, step, config: SchemeConfig, u0: FieldP1, n_steps: int,
               boundary=None):
    """Advance ``n_steps`` steps; returns final field, histories, diagnostics.

    Every solve of the run starts from the run's recent solutions (one
    :class:`~dcgm.linalg.SolutionHistory` for the run's single matrix).
    The stability norm reads the characteristic operator's ``lhs``, which is
    its form; the other schemes get the form assembled here.

    ``boundary(x, t)``, when given, supplies the imposed values at the
    boundary vertices ``x`` at each step's end time (Dirichlet steps only).
    """
    mesh = u0.mesh
    rim = None if boundary is None else mesh.vertices[mesh.boundary_vertices]
    form = (op.lhs if isinstance(op, DcgmOperator)
            else stability_form(mesh, config.nu, config.dt))
    masses = [integral(u0)]
    norms = [nu_dt_norm(u0, form)]
    diags: list[StepDiagnostics] = []
    history = SolutionHistory()
    u = u0
    for n in range(1, n_steps + 1):
        extra = {} if rim is None else {"u_boundary": boundary(rim, n * config.dt)}
        # by keyword: perfbench's tracer reads the operator from kwargs["op"]
        u, diag = step(op=op, u_prev=u, history=history, **extra)
        diags.append(diag)
        masses.append(diag.mass)
        norms.append(nu_dt_norm(u, form))
    return u, np.array(masses), np.array(norms), diags


def _report(scheme: str, N: int, mesh: TriMesh, config: SchemeConfig,
            n_steps: int, run, exact, wall: float = 0.0) -> RunReport:
    """Table row of a finished ``run`` (the tuple :func:`_run_steps`
    returns); the error is measured against ``exact(x, y)``."""
    u, masses, norms, diags = run
    return RunReport(
        scheme=scheme,
        n_boundary=N,
        n_vertices=mesh.nv,
        n_steps=n_steps,
        nu=config.nu,
        dt=config.dt,
        h_max=mesh.h_max,
        min_value=float(u.coeffs.min()),
        max_value=float(u.coeffs.max()),
        mass=masses[-1],
        initial_mass=masses[0],
        l2_err=l2_error(u, exact, nine_point_rule()),
        wall_time=wall,
        mass_history=masses,
        norm_history=norms,
        diagnostics=diags,
        final=u,
    )


def _turn(N: int, scheme: str, params: BellParams, initial, exact,
          boundary=None) -> RunReport:
    """One turn of ``scheme`` on the disk with ``N`` boundary vertices from
    the interpolant of ``initial(x, y)``; the error is measured against
    ``exact(x, y)`` and ``boundary`` is as in :func:`_run_steps`."""
    n_steps = _n_steps(params, N)
    config = _config(params, n_steps)
    mesh = build_disk_mesh(N)
    u0 = interpolate(mesh, initial)
    start = time.perf_counter()
    op, step = _prepare(scheme, mesh, config)
    run = _run_steps(op, step, config, u0, n_steps, boundary)
    wall = time.perf_counter() - start
    return _report(scheme, N, mesh, config, n_steps, run, exact, wall)


def run_one_turn(N: int, scheme: str, params: BellParams | None = None) -> RunReport:
    """One full rotation of the bell fixed by ``params`` on the disk mesh
    with ``N`` boundary vertices."""
    params = params or BellParams()
    return _turn(N, scheme.lower(), params, bell_at_time(params, 0.0),
                 bell_at_time(params, T))


def exact_report(N: int, params: BellParams | None = None) -> RunReport:
    """Table row for the vertex interpolant of the closed-form solution at
    the final time; its error column is the interpolation floor."""
    params = params or BellParams()
    n_steps = _n_steps(params, N)
    config = _config(params, n_steps)
    mesh = build_disk_mesh(N)
    exact = bell_at_time(params, T)
    u = interpolate(mesh, exact)
    form = stability_form(mesh, config.nu, config.dt)
    run = (u, np.array([integral(u)]), np.array([nu_dt_norm(u, form)]), [])
    return _report("exact", N, mesh, config, n_steps, run, exact)


def fit_order(h_values, errors) -> float:
    """Least-squares slope of log(error) against log(h)."""
    h = np.log(np.asarray(h_values, dtype=float))
    e = np.log(np.asarray(errors, dtype=float))
    slope, _ = np.polyfit(h, e, 1)
    return float(slope)


def convergence_study(scheme: str, sizes, params: BellParams | None = None):
    """Run the bell of ``params`` on a sweep of mesh sizes; returns
    (reports, fitted order).

    Needs at least three sizes for a meaningful slope.
    """
    sizes = list(sizes)
    if len(sizes) < 3:
        raise ValueError("need at least 3 mesh sizes to fit an order")
    reports = [run_one_turn(N, scheme, params) for N in sizes]
    order = fit_order([r.h_max for r in reports], [r.l2_err for r in reports])
    return reports, order


def compare_schemes(N: int = 200, params: BellParams | None = None) -> list[RunReport]:
    """All four schemes on one mesh plus the interpolated-exact reference
    row, every row on the same step count, which is what the frozen
    comparison targets assume (refining the centered step mostly removes its
    temporal smearing and makes that row look better, not worse)."""
    params = params or BellParams()
    out = [run_one_turn(N, scheme, params) for scheme in SCHEMES]
    out.append(exact_report(N, params))
    return out


def discontinuous_test(N: int = 200, params: BellParams | None = None) -> RunReport:
    """One conservative characteristic turn from the indicator of the disk
    (x - 0.3)^2 + y^2 < 0.15.  ``params`` gives nu, the step count and the
    numerics; the datum is the indicator, so its ``x0`` and ``r`` go unread.

    There is no closed form with diffusion, so the error column measures the
    distance to the initial interpolant after the full turn (transport alone
    would reproduce it exactly).
    """
    def indicator(x, y):
        return ((np.asarray(x) - 0.3) ** 2 + np.asarray(y) ** 2 < 0.15).astype(float)

    return _turn(N, "dcgm", params or BellParams(), indicator, indicator)


def run_one_turn_dirichlet(N: int, params: BellParams | None = None) -> RunReport:
    """Bell turn with the experimental strongly-imposed boundary variant.

    Boundary vertices are pinned to the closed-form solution at each step's
    final time, and the system matrix carries the boundary-flux correction.
    ``params`` is as in :func:`run_one_turn`.
    """
    params = params or BellParams()
    return _turn(N, "dcgm-dirichlet", params, bell_at_time(params, 0.0),
                 bell_at_time(params, T),
                 boundary=lambda x, t: exact_bell(params, x, t))


def cross_section(field: FieldP1):
    """201 samples (x, u(x, 0)) along the horizontal axis, mesh-bounds to
    mesh-bounds; points outside the mesh are skipped."""
    xs = np.linspace(
        float(field.mesh.vertices[:, 0].min()),
        float(field.mesh.vertices[:, 0].max()),
        201,
    )
    tri, lam = locate_point(field.mesh, np.column_stack([xs, np.zeros_like(xs)]))
    keep = tri >= 0
    coeffs = field.coeffs[field.mesh.triangles[tri[keep]]]
    values = (coeffs[:, None, :] @ lam[keep][:, :, None])[:, 0, 0]
    return [(float(x), float(u)) for x, u in zip(xs[keep], values)]


def stability_constant(report: RunReport) -> float:
    """Smallest C with per-step norm growth <= 1 + C (h^2/nu + dt^2) over the
    whole run (negative when the norm only decays)."""
    norms = report.norm_history
    growth = norms[1:] / norms[:-1]
    bound = report.h_max**2 / report.nu + report.dt**2
    return float(np.max((growth - 1.0) / bound))
