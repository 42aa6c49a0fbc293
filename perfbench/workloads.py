"""Workloads of the dcgm benchmark: inputs made from a seed, the library
call, and the checks on its output.

Seed 0 is the README configuration: the bell starts at (0.35, 0) and the
Heston initial mean is mu = 50.  Any other seed turns the bell's start point
around the origin at radius 0.35 and moves mu within 10 % of 50.  Tracing
and projection depend only on the mesh and the velocity field, so a seed
changes the values computed, not the work done.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from dcgm import bench, heston

BELL_RADIUS = 0.35
HESTON_MU = 50.0

# criterion 1 and the Heston mass column
MASS_DRIFT_MAX = 1e-10
HESTON_MASS_DEV_MAX = 1e-8
# criterion 2: the N=400 error lies within [0.5, 2] of the paper's table value
TABLE_L2_400 = 0.000763
# outputs of the seed-0 runs at full size on the package as first
# benchmarked; a run must match them to well within what a solver tolerance
# of 1e-13 can move (a relative 1e-7 here)
REFERENCE_REL_TOL = 1e-7
REFERENCE_BELL_L2 = {400: 0.0008658166663320879}
REFERENCE_COMPARE_L2 = {
    200: {
        "dcgm": 0.003126218096032805,
        "pcgm": 0.0029683837171081023,
        "supg": 0.08865825570515236,
        "centered": 0.08992902321771075,
    },
}
REFERENCE_PUT = {(60, 60, 300): 36.46573979335091}


def seeded_inputs(seed: int) -> tuple[tuple[float, float], float]:
    """Bell start point and Heston initial mean for ``seed``."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if seed == 0:
        return (BELL_RADIUS, 0.0), HESTON_MU
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    mu = HESTON_MU * (1.0 + rng.uniform(-0.1, 0.1))
    return (BELL_RADIUS * math.cos(angle), BELL_RADIUS * math.sin(angle)), mu


@dataclass
class Outcome:
    """What one workload call produced.

    ``finals`` are final coefficient vectors, compared bit for bit between
    calls with the same seed; ``counts`` must repeat exactly as well.
    """

    finals: list[np.ndarray]
    counts: dict[str, int]
    values: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def _reference_failure(label: str, value: float, ref: float) -> list[str]:
    if abs(value - ref) <= REFERENCE_REL_TOL * abs(ref):
        return []
    return [f"{label} {value!r} differs from the reference {ref!r}"]


def _bell_failures(report, check_conservation: bool) -> list[str]:
    out = []
    coeffs = report.final.coeffs
    if not np.all(np.isfinite(coeffs)):
        out.append(f"{report.scheme}: non-finite coefficients")
    if check_conservation and not report.mass_drift <= MASS_DRIFT_MAX:
        out.append(f"{report.scheme}: mass drift {report.mass_drift:.3g} "
                   f"> {MASS_DRIFT_MAX:g}")
    return out


def _iterations(report) -> int:
    return sum(d.solver.iterations for d in report.diagnostics)


@dataclass(frozen=True)
class BellTurn:
    """One turn of the bell with the dual scheme: ``run_one_turn(N, "dcgm")``."""

    N: int

    def run(self, seed: int) -> Outcome:
        x0, _ = seeded_inputs(seed)
        report = bench.run_one_turn(self.N, "dcgm", bench.BellParams(x0=x0))
        out = Outcome(
            finals=[report.final.coeffs],
            counts={"steps": report.n_steps, "cg_iters": _iterations(report)},
            failures=_bell_failures(report, True),
        )
        if self.N == 400:
            ratio = report.l2_err / TABLE_L2_400
            if not 0.5 <= ratio <= 2.0:
                out.failures.append(f"L2 error {report.l2_err:.4g} is {ratio:.2f}"
                                    " times the table value, outside [0.5, 2]")
        if seed == 0 and self.N in REFERENCE_BELL_L2:
            out.failures += _reference_failure("L2 error", report.l2_err,
                                               REFERENCE_BELL_L2[self.N])
        return out


@dataclass(frozen=True)
class Compare:
    """All four schemes and the exact row: ``compare_schemes(N)``."""

    N: int

    def run(self, seed: int) -> Outcome:
        x0, _ = seeded_inputs(seed)
        with warnings.catch_warnings():
            # the centered row warns that dt exceeds its accuracy guideline
            warnings.simplefilter("ignore")
            rows = bench.compare_schemes(self.N, bench.BellParams(x0=x0))
        by = {r.scheme: r for r in rows}
        out = Outcome(
            finals=[r.final.coeffs for r in rows],
            counts={f"steps.{r.scheme}": r.n_steps for r in rows},
        )
        out.counts["cg_iters.dcgm"] = _iterations(by["dcgm"])
        for r in rows:
            # pcgm is not conservative; the exact row is an interpolant
            out.failures += _bell_failures(r, r.scheme in ("dcgm", "supg", "centered"))
        if self.N == 200:
            checks = {
                "dcgm err <= 0.006": by["dcgm"].l2_err <= 0.006,
                "pcgm err <= 0.006": by["pcgm"].l2_err <= 0.006,
                "supg err >= 0.05": by["supg"].l2_err >= 0.05,
                "centered err >= 0.05": by["centered"].l2_err >= 0.05,
                "dcgm max in [0.60, 0.70]": 0.60 <= by["dcgm"].max_value <= 0.70,
                "supg max <= 0.50": by["supg"].max_value <= 0.50,
                "dcgm 10x below supg": by["dcgm"].l2_err * 10.0 <= by["supg"].l2_err,
            }
            out.failures += [f"criterion 4: {k}" for k, ok in checks.items() if not ok]
        if seed == 0 and self.N in REFERENCE_COMPARE_L2:
            for scheme, ref in REFERENCE_COMPARE_L2[self.N].items():
                out.failures += _reference_failure(f"{scheme} L2 error",
                                                   by[scheme].l2_err, ref)
        return out


@dataclass(frozen=True)
class HestonDesk:
    """The forward density run: ``heston_run(HestonParams(), nx, ny, steps)``."""

    nx: int
    ny: int
    steps: int

    def run(self, seed: int) -> Outcome:
        _, mu = seeded_inputs(seed)
        with warnings.catch_warnings():
            # undershoot and boundary-leak warnings are expected (criterion 9)
            warnings.simplefilter("ignore")
            u, steps, price = heston.heston_run(
                heston.HestonParams(mu=mu), self.nx, self.ny, self.steps)
        masses = np.array([s.diag.mass for s in steps])
        out = Outcome(
            finals=[u.coeffs],
            counts={"steps": len(steps),
                    "cg_iters": sum(s.diag.solver.iterations for s in steps)},
            # positivity fails at this size already (criterion 9): recorded only
            values={"min_u": float(min(s.diag.min_value for s in steps))},
        )
        deviation = float(np.max(np.abs(masses - 1.0)))
        if not deviation <= HESTON_MASS_DEV_MAX:
            out.failures.append(f"max |mass - 1| {deviation:.3g} > {HESTON_MASS_DEV_MAX:g}")
        if not math.isfinite(price):
            out.failures.append(f"put price {price!r} is not finite")
        if not np.all(np.isfinite(u.coeffs)):
            out.failures.append("non-finite density")
        key = (self.nx, self.ny, self.steps)
        if seed == 0 and key in REFERENCE_PUT:
            out.failures += _reference_failure("put price", price, REFERENCE_PUT[key])
        return out


# Why each workload is in the benchmark:
# - bell-dcgm-400: the paper's headline scheme at the largest ROADMAP size
#   that fits the run budget; set-up (tracing, projection) and the step loop
#   each take about half of it.
# - heston-desk: the application case; projection of backward images the
#   dual scheme never reads dominates set-up, and each step runs a
#   variable-coefficient solve and the put-price quadrature.
# - compare-200: the only workload that runs pcgm and the Eulerian schemes
#   (BiCGStab); a shared-code change that helps dcgm and hurts them shows here.
WORKLOADS = {
    "bell-dcgm-400": BellTurn(400),
    "heston-desk": HestonDesk(60, 60, 300),
    "compare-200": Compare(200),
}

# the same code paths at sizes that run in a fraction of a second
TINY = {
    "bell-dcgm-400": BellTurn(60),
    "heston-desk": HestonDesk(10, 10, 5),
    "compare-200": Compare(60),
}
