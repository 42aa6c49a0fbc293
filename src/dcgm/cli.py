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
from .mesh import MIN_BOUNDARY, _real, build_disk_mesh, build_rect_mesh, save_mesh

TABLE_HEADER = "scheme,N,vertices,n_steps,min,max,integral,l2_error"


def _table_row(r: RunReport) -> tuple:
    return (r.scheme, r.n_boundary, r.n_vertices, r.n_steps, r.min_value,
            r.max_value, r.mass, r.l2_err)


def _print_row(r: RunReport) -> None:
    print(
        f"{r.scheme:>14s}  N={r.n_boundary:<4d} steps={r.n_steps:<5d} "
        f"min={r.min_value: .3e} max={r.max_value:.6f} "
        f"mass={r.mass:.9f} err={r.l2_err:.6g} ({r.wall_time:.2f}s)"
    )


def _write(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def _row(cells) -> str:
    """One CSV line: floats in full precision, anything else as ``str``."""
    return ",".join(f"{c:.17g}" if isinstance(c, float) else str(c) for c in cells)


def _write_csv(path: Path, header: str, rows) -> None:
    _write(path, [header, *map(_row, rows)])


def _write_diag_csv(path: Path, report: RunReport) -> None:
    _write_csv(path, "step,mass,min,max,solver_iters,projected_fraction",
               ((k, d.mass, d.min_value, d.max_value, d.solver.iterations,
                 d.projected_fraction)
                for k, d in enumerate(report.diagnostics, start=1)))


def _write_cut_csv(path: Path, report: RunReport) -> None:
    _write_csv(path, "x,u", cross_section(report.final))


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


def _at_least(least: int, what: str):
    """An argparse type: a whole number >= ``least``, ``what`` in errors."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"{what} {value} is below {least}")
        return value
    return parse


_parse_size = _at_least(MIN_BOUNDARY, "mesh size")
_parse_grid = _at_least(2, "grid size")
_parse_steps = _at_least(1, "n_steps")


def _parse_sizes(text: str) -> list[int]:
    sizes = [_parse_size(tok) for tok in text.split(",") if tok.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError("empty mesh-size list")
    if len(set(sizes)) < len(sizes):
        raise argparse.ArgumentTypeError(f"repeated mesh size in {text!r}")
    return sizes


def _run_params(args: argparse.Namespace) -> BellParams | HestonParams | None:
    """The parameters the command's flags give its run; mesh has none (its
    rectangle extents are checked here), and discont, which has no bell
    flags, keeps the bell's defaults."""
    if args.command == "mesh":
        if args.rect:
            _real("x_max", args.xmax, positive=True)
            _real("y_max", args.ymax, positive=True)
        return None
    if args.command == "heston":
        return HestonParams(T=args.T, strike=args.strike, mu=args.mu,
                            offdiag_rho=args.offdiag_rho)
    bell = {} if args.command == "discont" else dict(
        x0=tuple(args.x0), r=args.r, n_steps=args.steps)
    return BellParams(nu=args.nu, sigma=args.sigma, quadrature=args.quadrature,
                      solver_tol=args.solver_tol, **bell)


def _add_scheme_flags(p: argparse.ArgumentParser) -> None:
    """Diffusion and numerics flags; every bell-type run has them, and
    :func:`_run_params` hands them to :class:`BellParams`."""
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
    p.add_argument("--steps", type=_parse_steps, default=None,
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
    p.add_argument("--N", type=_parse_size, default=200, help="disk boundary vertices")
    p.add_argument("--rect", type=_parse_grid, nargs=2, metavar=("NX", "NY"),
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
    p.add_argument("--N", type=_parse_size, default=200)
    _add_bell_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("convergence", help="error-vs-h sweep")
    p.add_argument("--scheme", default="dcgm", choices=SCHEMES)
    p.add_argument("--N", type=_parse_sizes, default=[100, 200, 400])
    _add_bell_flags(p)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("discont", help="indicator-datum robustness run")
    p.add_argument("--N", type=_parse_size, default=200)
    _add_scheme_flags(p)
    p.set_defaults(func=cmd_discont)

    p = sub.add_parser("heston", help="Heston forward-density run")
    p.add_argument("--nx", type=_parse_grid, default=60)
    p.add_argument("--ny", type=_parse_grid, default=60)
    p.add_argument("--steps", type=_parse_steps, default=300)
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--strike", type=float, default=75.0)
    p.add_argument("--mu", type=float, default=50.0)
    p.add_argument("--offdiag-rho", action="store_true",
                   help="use rho*lam in the off-diagonal diffusion entry "
                        "instead of the as-printed lam")
    p.add_argument("--snapshot-every", type=_at_least(0, "snapshot interval"),
                   default=0,
                   help="write a density CSV every k steps (0: final only)")
    p.set_defaults(func=cmd_heston)

    return parser


def cmd_mesh(args, _params, out: Path) -> dict:
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


def cmd_bell(args, params: BellParams, out: Path) -> dict:
    rows = []
    for n in args.N:
        if args.dirichlet:
            report = run_one_turn_dirichlet(n, params)
        else:
            report = run_one_turn(n, args.scheme, params)
        _print_row(report)
        rows.append(_table_row(report))
        if report.diagnostics:
            _write_diag_csv(out / f"diag_{report.scheme}_{n}.csv", report)
        _write_cut_csv(out / f"cut{n}.csv", report)
    _write_csv(out / "table1.csv", TABLE_HEADER, rows)
    return {"table": "table1.csv"}


def cmd_compare(args, params: BellParams, out: Path) -> dict:
    reports = compare_schemes(args.N, params)
    for report in reports:
        _print_row(report)
        _write_cut_csv(out / f"cut{args.N}_{report.scheme}.csv", report)
        if report.diagnostics:
            _write_diag_csv(out / f"diag_{report.scheme}_{args.N}.csv", report)
        if report.scheme == "dcgm":
            _write_cut_csv(out / f"cut{args.N}.csv", report)
    _write_csv(out / "table2.csv", TABLE_HEADER, map(_table_row, reports))
    return {"table": "table2.csv"}


def cmd_convergence(args, params: BellParams, out: Path) -> dict:
    reports, order = convergence_study(args.scheme, args.N, params)
    for r in reports:
        _print_row(r)
    print(f"fitted order in h: {order:.3f}")
    _write_csv(out / "convergence.csv", "N,vertices,h_max,l2_error,fitted_order",
               ((r.n_boundary, r.n_vertices, r.h_max, r.l2_err, order)
                for r in reports))
    return {"fitted_order": f"{order:.17g}"}


def cmd_discont(args, params: BellParams, out: Path) -> dict:
    report = discontinuous_test(args.N, params)
    _print_row(report)
    _write_diag_csv(out / "discont_diag.csv", report)
    write_field_csv(report.final, out / f"discont{args.N}.csv")
    drift = report.mass_drift
    print(f"mass drift {drift:.3e}, min {report.min_value:.3e}, "
          f"max {report.max_value:.6f}")
    return {"mass_drift": f"{drift:.17g}"}


def cmd_heston(args, params: HestonParams, out: Path) -> dict:
    every = args.snapshot_every

    def snap(step, field):
        if every > 0 and step % every == 0:
            write_field_csv(field, out / f"heston_step{step}.csv")

    final, steps, price = heston_run(
        params, args.nx, args.ny, args.steps, on_step=snap,
    )
    _write_csv(out / "heston_diag.csv", "step,mass,min,max,price,boundary_mass",
               ((k, s.diag.mass, s.diag.min_value, s.diag.max_value, s.price,
                 s.boundary_mass) for k, s in enumerate(steps, start=1)))
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
        if args.command == "convergence" and len(args.N) < 3:
            parser.error("convergence needs at least 3 mesh sizes in --N")
        try:
            params = _run_params(args)
        except ValueError as exc:  # a value the library refuses
            parser.error(str(exc))
    except SystemExit as exc:
        return int(exc.code or 0)
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
        extra = args.func(args, params, out)
        _manifest(out, args, extra)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a failure before the first file leaves no directory behind
        for d in made:
            if d.is_dir() and not any(d.iterdir()):
                d.rmdir()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
