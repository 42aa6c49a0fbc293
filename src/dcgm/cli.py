"""Command-line driver.

Subcommands generate meshes, run the rotating-bell benchmarks, and solve the
Heston forward equation, writing CSV artifacts into an output directory along
with a manifest of the resolved parameters.  All outputs are deterministic:
repeating an invocation reproduces the files byte for byte (wall-clock times
are printed to the terminal only, never written into CSVs).

Linear algebra threading follows the BLAS environment (OMP_NUM_THREADS /
OPENBLAS_NUM_THREADS); the solver itself is single-process.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .bench import (
    SCHEMES,
    BellParams,
    RunReport,
    compare_schemes,
    convergence_study,
    cross_section,
    discontinuous_test,
    run_one_turn,
    run_one_turn_dirichlet,
)
from .fem import write_field_csv
from .heston import HestonParams, heston_run
from .mesh import build_disk_mesh, build_rect_mesh, save_mesh
from .schemes import SchemeConfig, StepDiagnostics

TABLE_HEADER = "scheme,N,vertices,n_steps,min,max,integral,l2_error"


def _table_row(r: RunReport) -> str:
    return (
        f"{r.scheme},{r.n_boundary},{r.n_vertices},{r.n_steps},"
        f"{r.min_value:.17g},{r.max_value:.17g},{r.mass:.17g},{r.l2_err:.17g}"
    )


def _print_row(r: RunReport) -> None:
    print(
        f"{r.scheme:>14s}  N={r.n_boundary:<4d} steps={r.n_steps:<5d} "
        f"min={r.min_value: .3e} max={r.max_value:.6f} "
        f"mass={r.mass:.9f} err={r.l2_err:.6g} ({r.wall_time:.2f}s)"
    )


def _write(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def _write_diag_csv(path: Path, report: RunReport) -> None:
    lines = [StepDiagnostics.csv_header()]
    for k, diag in enumerate(report.diagnostics, start=1):
        lines.append(diag.csv_row(k))
    _write(path, lines)


def _write_cut_csv(path: Path, report: RunReport) -> None:
    lines = ["x,u"]
    for x, u in cross_section(report.final):
        lines.append(f"{x:.17g},{u:.17g}")
    _write(path, lines)


def _manifest(out: Path, args: argparse.Namespace, extra: dict) -> None:
    lines = [f"tool_version={__version__}", f"subcommand={args.command}"]
    skip = {"command", "func"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        lines.append(f"{key}={getattr(args, key)}")
    for key in sorted(extra):
        lines.append(f"{key}={extra[key]}")
    _write(out / "manifest.txt", lines)


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad mesh-size list {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("empty mesh-size list")
    return sizes


def _bell_params(args: argparse.Namespace) -> BellParams:
    return BellParams(
        x0=(args.x0[0], args.x0[1]),
        r=args.r,
        nu=args.nu,
        n_steps=args.steps,
    )


def _scheme_config(args: argparse.Namespace) -> SchemeConfig:
    # dt is a placeholder: every bell run steps with dt = T / n_steps.  nu
    # is the same --nu that BellParams gets, as the bench requires
    return SchemeConfig(
        nu=args.nu,
        dt=1.0,
        sigma=args.sigma,
        quadrature=args.quadrature,
        solver_tol=args.solver_tol,
    )


def _add_scheme_flags(p: argparse.ArgumentParser) -> None:
    """The flags :func:`_scheme_config` reads; every bell-type run has them."""
    p.add_argument("--nu", type=float, default=1e-3, help="diffusion coefficient")
    p.add_argument("--sigma", type=int, default=1, choices=(0, 1),
                   help="tracer order switch")
    p.add_argument("--quadrature", default="ninepoint",
                   choices=("midedge", "ninepoint"))
    p.add_argument("--solver-tol", type=float, default=1e-13)


def _add_bell_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=float, default=20.0,
                   help="bell sharpness (default is the calibrated benchmark value)")
    p.add_argument("--x0", type=float, nargs=2, default=[0.35, 0.0],
                   metavar=("X", "Y"), help="initial bell center")
    p.add_argument("--steps", type=int, default=None,
                   help="time steps per turn (default: N // 3)")
    _add_scheme_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcgm",
        description="Characteristic-Galerkin convection-diffusion benchmarks",
    )
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate a mesh file")
    p.add_argument("--N", type=int, default=200, help="disk boundary vertices")
    p.add_argument("--rect", type=int, nargs=2, metavar=("NX", "NY"),
                   help="rectangle grid instead of the disk")
    p.add_argument("--xmax", type=float, default=1.0)
    p.add_argument("--ymax", type=float, default=1.0)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("bell", help="one-turn rotating-bell run(s)")
    p.add_argument("--scheme", default="dcgm", choices=SCHEMES)
    p.add_argument("--N", type=_parse_sizes, default=[200],
                   help="comma-separated disk sizes, e.g. 100,200,400")
    p.add_argument("--dirichlet", action="store_true",
                   help="experimental strongly-imposed boundary variant "
                        "(dcgm scheme only)")
    _add_bell_flags(p)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("compare", help="all schemes on one mesh, writes table2.csv")
    p.add_argument("--N", type=int, default=200)
    _add_bell_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("convergence", help="error-vs-h sweep")
    p.add_argument("--scheme", default="dcgm", choices=SCHEMES)
    p.add_argument("--N", type=_parse_sizes, default=[100, 200, 400])
    _add_bell_flags(p)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("discont", help="indicator-datum robustness run")
    p.add_argument("--N", type=int, default=200)
    _add_scheme_flags(p)
    p.set_defaults(func=cmd_discont)

    p = sub.add_parser("heston", help="Heston forward-density run")
    p.add_argument("--nx", type=int, default=60)
    p.add_argument("--ny", type=int, default=60)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--strike", type=float, default=75.0)
    p.add_argument("--mu", type=float, default=50.0)
    p.add_argument("--offdiag-rho", action="store_true",
                   help="use rho*lam in the off-diagonal diffusion entry "
                        "instead of the as-printed lam")
    p.add_argument("--snapshot-every", type=int, default=0,
                   help="write a density CSV every k steps (0: final only)")
    p.set_defaults(func=cmd_heston)

    return parser


def cmd_mesh(args, out: Path) -> dict:
    if args.rect:
        nx, ny = args.rect
        mesh = build_rect_mesh(nx, ny, args.xmax, args.ymax)
        name = f"rect{nx}x{ny}.msh"
    else:
        mesh = build_disk_mesh(args.N)
        name = f"disk{args.N}.msh"
    save_mesh(mesh, out / name)
    print(f"wrote {out / name}: {mesh.nv} vertices, {mesh.nt} triangles")
    return {"mesh_file": name, "vertices": mesh.nv, "triangles": mesh.nt}


def cmd_bell(args, out: Path) -> dict:
    params = _bell_params(args)
    config = _scheme_config(args)
    rows = [TABLE_HEADER]
    for n in args.N:
        if args.dirichlet:
            report = run_one_turn_dirichlet(n, params, config)
        else:
            report = run_one_turn(n, args.scheme, params, config)
        _print_row(report)
        rows.append(_table_row(report))
        if report.diagnostics:
            _write_diag_csv(out / f"diag_{report.scheme}_{n}.csv", report)
        _write_cut_csv(out / f"cut{n}.csv", report)
    _write(out / "table1.csv", rows)
    return {"table": "table1.csv"}


def cmd_compare(args, out: Path) -> dict:
    params = _bell_params(args)
    config = _scheme_config(args)
    reports = compare_schemes(args.N, params, config)
    rows = [TABLE_HEADER]
    for report in reports:
        _print_row(report)
        rows.append(_table_row(report))
        _write_cut_csv(out / f"cut{args.N}_{report.scheme}.csv", report)
        if report.diagnostics:
            _write_diag_csv(out / f"diag_{report.scheme}_{args.N}.csv", report)
        if report.scheme == "dcgm":
            _write_cut_csv(out / f"cut{args.N}.csv", report)
    _write(out / "table2.csv", rows)
    return {"table": "table2.csv"}


def cmd_convergence(args, out: Path) -> dict:
    params = _bell_params(args)
    config = _scheme_config(args)
    reports, order = convergence_study(args.scheme, args.N, params, config)
    rows = ["N,vertices,h_max,l2_error,fitted_order"]
    for r in reports:
        _print_row(r)
        rows.append(
            f"{r.n_boundary},{r.n_vertices},{r.h_max:.17g},"
            f"{r.l2_err:.17g},{order:.17g}"
        )
    print(f"fitted order in h: {order:.3f}")
    _write(out / "convergence.csv", rows)
    return {"fitted_order": f"{order:.17g}"}


def cmd_discont(args, out: Path) -> dict:
    report = discontinuous_test(args.N, _scheme_config(args))
    _print_row(report)
    _write_diag_csv(out / "discont_diag.csv", report)
    write_field_csv(report.final, out / f"discont{args.N}.csv")
    drift = report.mass_drift
    print(f"mass drift {drift:.3e}, min {report.min_value:.3e}, "
          f"max {report.max_value:.6f}")
    return {"mass_drift": f"{drift:.17g}"}


def cmd_heston(args, out: Path) -> dict:
    params = HestonParams(T=args.T, strike=args.strike, mu=args.mu,
                          offdiag_rho=args.offdiag_rho)
    every = args.snapshot_every

    def snap(step, field):
        if every > 0 and step % every == 0:
            write_field_csv(field, out / f"heston_step{step}.csv")

    final, steps, price = heston_run(
        params, args.nx, args.ny, args.steps, on_step=snap,
    )
    lines = [steps[0].csv_header()]
    for k, row in enumerate(steps, start=1):
        lines.append(row.csv_row(k))
    _write(out / "heston_diag.csv", lines)
    write_field_csv(final, out / "heston_final.csv")
    last = steps[-1]
    print(
        f"heston: {args.nx}x{args.ny}, {args.steps} steps to T={params.T}; "
        f"mass={last.diag.mass:.12f} min={last.diag.min_value: .3e} "
        f"put={price:.6f}"
    )
    return {"put_price": f"{price:.17g}"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "dirichlet", False) and args.scheme != "dcgm":
            parser.error(f"--dirichlet runs the dcgm scheme only, not {args.scheme}")
    except SystemExit as exc:
        return int(exc.code or 0)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        extra = args.func(args, out)
        _manifest(out, args, extra)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
