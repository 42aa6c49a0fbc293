"""Kolmogorov forward equation of the Heston model, solved with the
conservative characteristic scheme.

The model evolves a price/variance density u(x, y, t) on the quadrant by

    du/dt + div([r x u, kappa (theta - y) u]) - sum_ij d_i d_j (A_ij u / 2) = 0,
    A = [[x^2 y, c x y], [c x y, lam^2 y]],

where lam is the vol-of-vol and c is the off-diagonal coefficient (lam as
printed in the source material; optionally rho lam, see ``offdiag_rho``).

The second-order term is rewritten in divergence form so the advection and
diffusion pieces of the scheme apply unchanged.  With summation over i:

    d_i d_j (A_ij u / 2) = d_j [ (u/2) d_i A_ij + (A_ij / 2) d_i u ]

so, with D = A/2 and the column-wise divergence (div A)_j = d_i A_ij,

    du/dt + div(b_eff u) - div(D grad u) = 0,
    b_eff = b - (1/2) div A,
    (div A)_1 = d_x(x^2 y) + d_y(c x y) = 2 x y + c x,
    (div A)_2 = d_x(c x y) + d_y(lam^2 y) = c y + lam^2.

The effective drift is not divergence-free, unlike the rotating benchmark;
the scheme is applied regardless (mass conservation comes from the scatter,
not from the drift), at the price of an O(dt div b_eff) consistency term.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .characteristics import VelocityField
from .fem import FieldP1, assemble_local, basis_gradients, integral, interpolate
from .mesh import TriMesh, build_rect_mesh
from .quadrature import QuadratureRule, nine_point_rule
from .schemes import SchemeConfig, StepDiagnostics, dcgm_prepare, dcgm_step

__all__ = [
    "HestonParams",
    "TensorField",
    "HestonStep",
    "heston_operator",
    "assemble_tensor_stiffness",
    "heston_run",
    "put_price",
    "expectation",
    "boundary_mass",
]


@dataclass(frozen=True)
class HestonParams:
    """Model, initial-condition, and domain parameters.

    Defaults are the reference test set: r=0.03, K=75, mu=50, kappa=2,
    theta=0.1, lam=0.2, rho=-0.5, mu_v=0.75, sigma=10, sigma_v=0.1, on
    [0, 200] x [0, 2] up to T=10.
    """

    r: float = 0.03
    kappa: float = 2.0
    theta: float = 0.1
    lam: float = 0.2
    rho: float = -0.5
    mu: float = 50.0
    sigma: float = 10.0
    mu_v: float = 0.75
    sigma_v: float = 0.1
    strike: float = 75.0
    T: float = 10.0
    x_max: float = 200.0
    y_max: float = 2.0
    offdiag_rho: bool = False

    def __post_init__(self):
        for name in ("kappa", "theta", "lam", "sigma", "sigma_v"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if abs(self.rho) > 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if not (self.x_max > 0.0 and self.y_max > 0.0 and self.T > 0.0):
            raise ValueError("domain extents and horizon must be positive")

    @property
    def offdiag_coeff(self) -> float:
        """The c in A_12 = c x y: lam as printed, rho lam when opted in."""
        return self.rho * self.lam if self.offdiag_rho else self.lam


@dataclass(eq=False)
class TensorField:
    """Variable diffusion tensor and effective drift of the rewritten PDE.

    ``diffusion(x, y)`` returns D with shape (..., 2, 2), symmetric PSD on
    the quadrant; ``drift`` is the effective velocity b_eff with its analytic
    Jacobian, ready for characteristic tracing.
    """

    diffusion: Callable
    drift: VelocityField


def heston_operator(params: HestonParams) -> TensorField:
    """Advection-diffusion form of the forward equation (derivation above)."""
    c = params.offdiag_coeff
    lam2 = params.lam**2
    r, kappa, theta = params.r, params.kappa, params.theta

    def diffusion(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = np.empty(np.broadcast(x, y).shape + (2, 2))
        d[..., 0, 0] = 0.5 * x**2 * y
        d[..., 0, 1] = 0.5 * c * x * y
        d[..., 1, 0] = d[..., 0, 1]
        d[..., 1, 1] = 0.5 * lam2 * y
        return d

    def drift_value(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        # b_eff = b - (1/2) div A with the divergences derived above
        b1 = x * (r - y - 0.5 * c)
        b2 = kappa * (theta - y) - 0.5 * (c * y + lam2)
        return b1, b2

    def drift_jacobian(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast(x, y).shape
        jac = np.zeros(shape + (2, 2))
        jac[..., 0, 0] = r - y - 0.5 * c  # d b1 / dx
        jac[..., 1, 0] = np.broadcast_to(-x, shape)  # d b1 / dy
        jac[..., 1, 1] = -kappa - 0.5 * c  # d b2 / dy
        return jac

    drift = VelocityField(value=drift_value, jacobian=drift_jacobian, name="heston")
    return TensorField(diffusion=diffusion, drift=drift)


def assemble_tensor_stiffness(mesh: TriMesh, diffusion,
                              rule: QuadratureRule | None = None) -> sp.csr_matrix:
    """K_ij = sum_T |T| sum_q w_q grad(phi_i) . D(x_q) grad(phi_j).

    Symmetric, and PSD whenever D is PSD at every quadrature node; with
    D = identity it reproduces the constant-coefficient stiffness matrix.
    """
    rule = rule or nine_point_rule()
    pts = np.einsum("qi,tid->tqd", rule.points, mesh._tri_xy)  # (nt, nq, 2)
    d = np.asarray(diffusion(pts[:, :, 0], pts[:, :, 1]), dtype=float)
    d = np.broadcast_to(d, (mesh.nt, len(rule), 2, 2))
    g = basis_gradients(mesh)  # (nt, 3, 2)
    local = np.einsum("q,tae,tqef,tbf->tab", rule.weights, g, d, g)
    local = local * mesh.areas[:, None, None]
    return assemble_local(mesh, local)


def expectation(field: FieldP1, f, rule: QuadratureRule | None = None) -> float:
    """Quadrature of f(x, y) times the field over the mesh."""
    rule = rule or nine_point_rule()
    mesh = field.mesh
    pts = np.einsum("qi,tid->tqd", rule.points, mesh._tri_xy)
    u = field.coeffs[mesh.triangles] @ rule.points.T  # (nt, nq)
    vals = np.asarray(f(pts[:, :, 0], pts[:, :, 1]), dtype=float)
    per_tri = (vals * u) @ rule.weights
    return float(np.sum(mesh.areas * per_tri))


def put_price(field: FieldP1, strike: float,
              rule: QuadratureRule | None = None) -> float:
    """Integral of (strike - x)_+ against the density."""
    return expectation(
        field, lambda x, y: np.clip(strike - np.asarray(x, dtype=float), 0.0, None),
        rule,
    )


def boundary_mass(field: FieldP1, mass_matrix: sp.csr_matrix) -> float:
    """Mass attached to boundary vertices: how much density has reached the
    truncation edges of the computational domain."""
    mu = mass_matrix @ field.coeffs
    return float(mu[field.mesh.boundary_vertices].sum())


@dataclass(eq=False)
class HestonStep:
    """One time step of the density run: scheme diagnostics plus the
    price-to-date and the boundary-leak indicator."""

    diag: StepDiagnostics
    price: float
    boundary_mass: float

    def csv_row(self, step: int) -> str:
        return (
            f"{step},{self.diag.mass:.17g},{self.diag.min_value:.17g},"
            f"{self.diag.max_value:.17g},{self.price:.17g},"
            f"{self.boundary_mass:.17g}"
        )

    @staticmethod
    def csv_header() -> str:
        return "step,mass,min,max,price,boundary_mass"


def _initial_density(mesh: TriMesh, params: HestonParams) -> FieldP1:
    sx, sy = params.sigma, params.sigma_v
    mx, my = params.mu, params.mu_v

    def gaussian(x, y):
        return np.exp(
            -((np.asarray(x, dtype=float) - mx) ** 2) / (2.0 * sx**2)
            - ((np.asarray(y, dtype=float) - my) ** 2) / (2.0 * sy**2)
        )

    u0 = interpolate(mesh, gaussian)
    total = integral(u0)
    if total <= 0.0:
        raise ValueError("initial density vanishes on this mesh")
    u0.coeffs /= total
    return u0


def heston_run(params: HestonParams, nx: int, ny: int, n_steps: int,
               solver_tol: float = 1e-12, on_step=None):
    """Evolve the initial product-Gaussian density to T on an nx-by-ny grid.

    Returns (final density, list of HestonStep, final put price).  The
    initial density is renormalized to unit mass; the per-step mass column
    then certifies conservation.  Emits warnings the first time the density
    dips below -1e-6 or the boundary-attached mass exceeds 1e-6 (expected
    when the domain truncation starts to bite).

    ``on_step(step_index, field)`` is called after every step when given.
    """
    if n_steps < 1:
        raise ValueError("need at least one time step")
    mesh = build_rect_mesh(nx, ny, params.x_max, params.y_max)
    tensor = heston_operator(params)
    rule = nine_point_rule()
    # nu = 1: the tensor stiffness carries the diffusion coefficients
    config = SchemeConfig(nu=1.0, dt=params.T / n_steps, solver_tol=solver_tol)
    stiffness = assemble_tensor_stiffness(mesh, tensor.diffusion, rule)
    op = dcgm_prepare(mesh, tensor.drift, config, stiffness=stiffness)

    u = _initial_density(mesh, params)
    steps: list[HestonStep] = []
    warned_neg = warned_leak = False
    for k in range(1, n_steps + 1):
        u, diag = dcgm_step(op, u)
        price = put_price(u, params.strike, rule)
        leak = boundary_mass(u, op.mass)
        steps.append(HestonStep(diag=diag, price=price, boundary_mass=leak))
        if not warned_neg and diag.min_value < -1e-6:
            warnings.warn(
                f"density dipped to {diag.min_value:.3e} at step {k}",
                stacklevel=2,
            )
            warned_neg = True
        if not warned_leak and leak > 1e-6:
            warnings.warn(
                f"boundary-attached mass {leak:.3e} at step {k}: the domain "
                "truncation is absorbing density",
                stacklevel=2,
            )
            warned_leak = True
        if on_step is not None:
            on_step(k, u)
    return u, steps, steps[-1].price
