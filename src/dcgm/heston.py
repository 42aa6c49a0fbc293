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
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .characteristics import VelocityField
from .fem import FieldP1, assemble_local, basis_gradients, integral, interpolate
from .linalg import _level_blocks
from .mesh import TriMesh, _real, _whole, build_rect_mesh
from .quadrature import QuadratureRule, nine_point_rule
from .schemes import (SchemeConfig, StepDiagnostics, _run_steps, dcgm_prepare,
                      dcgm_step)

__all__ = [
    "HestonParams",
    "TensorField",
    "HestonStep",
    "heston_operator",
    "assemble_tensor_stiffness",
    "heston_run",
    "put_payoff",
    "put_price",
    "expectation_weights",
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
        positive = ("kappa", "theta", "lam", "sigma", "sigma_v", "strike", "T",
                    "x_max", "y_max")
        for f in fields(self):
            if f.type == "float":
                _real(f.name, getattr(self, f.name), f.name in positive)
        if abs(self.rho) > 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if not isinstance(self.offdiag_rho, (bool, np.bool_)):
            raise ValueError(f"offdiag_rho must be a bool, not {self.offdiag_rho!r}")

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

    drift = VelocityField(value=drift_value, jacobian=drift_jacobian)
    return TensorField(diffusion=diffusion, drift=drift)


def assemble_tensor_stiffness(mesh: TriMesh, diffusion,
                              rule: QuadratureRule | None = None) -> sp.csr_matrix:
    """K_ij = sum_T |T| sum_q w_q grad(phi_i) . D(x_q) grad(phi_j).

    Symmetric, and PSD whenever D is PSD at every quadrature node; with
    D = identity it reproduces the constant-coefficient stiffness matrix.
    The gradients are constant on a triangle, so the rule sums D first.
    """
    rule = rule or nine_point_rule()
    pts = rule.points @ mesh._tri_xy  # (nt, nq, 2)
    d = np.asarray(diffusion(pts[:, :, 0], pts[:, :, 1]), dtype=float)
    d = np.broadcast_to(d, (mesh.nt, len(rule), 2, 2))
    d = np.einsum("q,tqef->tef", rule.weights, d)
    g = basis_gradients(mesh)  # (nt, 3, 2)
    local = (g @ d @ g.transpose(0, 2, 1)) * mesh.areas[:, None, None]
    return assemble_local(mesh, local)


def expectation_weights(mesh: TriMesh, f,
                        rule: QuadratureRule | None = None) -> np.ndarray:
    """Vertex vector p with p @ u the quadrature of f(x, y) times the field u:
    p_i = sum_T |T| sum_q w_q lambda_i(x_q) f(x_q)."""
    rule = rule or nine_point_rule()
    pts = rule.points @ mesh._tri_xy  # (nt, nq, 2)
    vals = np.asarray(f(pts[:, :, 0], pts[:, :, 1]), dtype=float)
    local = (vals * rule.weights) @ rule.points  # (nt, 3)
    local *= mesh.areas[:, None]
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.nv)


def expectation(field: FieldP1, f, rule: QuadratureRule | None = None) -> float:
    """Quadrature of f(x, y) times the field over the mesh."""
    return float(expectation_weights(field.mesh, f, rule) @ field.coeffs)


def put_payoff(strike: float):
    """The put payoff (strike - x)_+ as an f(x, y) callable."""
    return lambda x, y: np.clip(strike - np.asarray(x, dtype=float), 0.0, None)


def put_price(field: FieldP1, weights: np.ndarray) -> float:
    """Integral of the payoff against the density, with ``weights =
    expectation_weights(mesh, put_payoff(strike), rule)`` built once."""
    return float(weights @ field.coeffs)


def _boundary_weights(mesh: TriMesh) -> np.ndarray:
    """M 1_B, the consistent mass matrix applied to the indicator of the
    boundary vertices.  A triangle with b boundary corners adds
    |T|/12 (b + [j on the boundary]) at its corner j."""
    corners = mesh.is_boundary_vertex[mesh.triangles]  # (nt, 3)
    local = (corners.sum(axis=1)[:, None] + corners) * (mesh.areas[:, None] / 12.0)
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.nv)


def boundary_mass(field: FieldP1, weights: np.ndarray) -> float:
    """Mass attached to boundary vertices, sum over i on the boundary of
    (M u)_i: how much density has reached the truncation edges of the
    computational domain.  ``weights`` = M 1_B is built once per mesh."""
    return float(weights @ field.coeffs)


@dataclass(eq=False)
class HestonStep:
    """One time step of the density run: scheme diagnostics plus the
    price-to-date and the boundary-leak indicator."""

    diag: StepDiagnostics
    price: float
    boundary_mass: float


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
               on_step=None):
    """Evolve the initial product-Gaussian density to T on an nx-by-ny grid.

    Returns (final density, list of HestonStep, final put price).  The
    initial density is renormalized to unit mass; the per-step mass column
    then certifies conservation.  Emits warnings the first time the density
    dips below -1e-6 or the boundary-attached mass exceeds 1e-6 (expected
    when the domain truncation starts to bite).

    ``on_step(step_index, field)`` is called after every step when given.
    ``nx`` and ``ny`` (at least 2) and ``n_steps`` (at least 1) must be
    ints or numpy integers, not bools, and ``on_step`` None or callable;
    anything else raises ``ValueError`` naming the argument before the run
    builds anything.
    Every step solves the same matrix, so the run factors it once in
    breadth-first levels (:func:`~dcgm.linalg._level_blocks`) and sets it as
    the operator's ``factor``: each step starts from the factor's solution,
    and CG confirms it with 0 iterations.  A grid too large for the factor,
    or a matrix whose factor fails its probe solve, keeps Jacobi CG started
    from one :class:`~dcgm.linalg.SolutionHistory`: the best combination of
    the run's recent solutions.
    """
    n_steps = _whole("n_steps", n_steps, 1)
    if on_step is not None and not callable(on_step):
        raise ValueError(f"on_step must be callable, not {on_step!r}")
    mesh = build_rect_mesh(nx, ny, params.x_max, params.y_max)
    tensor = heston_operator(params)
    rule = nine_point_rule()
    # nu = 1: the tensor stiffness carries the diffusion coefficients
    config = SchemeConfig(nu=1.0, dt=params.T / n_steps, solver_tol=1e-12)
    stiffness = assemble_tensor_stiffness(mesh, tensor.diffusion, rule)
    op = dcgm_prepare(mesh, tensor.drift, config, stiffness=stiffness)
    blocks = _level_blocks(op.lhs, config.solver_tol)
    if blocks is not None:
        op.factor = blocks.solve
    put_weights = expectation_weights(mesh, put_payoff(params.strike), rule)
    leak_weights = _boundary_weights(mesh)

    u = _initial_density(mesh, params)
    steps: list[HestonStep] = []
    warned_neg = warned_leak = False
    for k, u, diag in _run_steps(op, dcgm_step, u, n_steps):
        price = put_price(u, put_weights)
        leak = boundary_mass(u, leak_weights)
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
