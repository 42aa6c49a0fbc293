"""End-to-end CLI checks: artifacts, manifests, determinism, exit codes."""
import warnings

import pytest

from dcgm.bench import BellParams, run_one_turn
from dcgm.cli import _row, _run_params, _table_row, build_parser, main
from dcgm.heston import HestonParams


def run_cli(args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(args)


def test_parser_builds():
    parser = build_parser()
    ns = parser.parse_args(["bell", "--N", "100,200"])
    assert ns.N == [100, 200]


def test_mesh_subcommand(tmp_path):
    out = tmp_path / "m"
    assert run_cli(["--out", str(out), "mesh", "--N", "60"]) == 0
    assert (out / "disk60.msh").exists()
    assert (out / "manifest.txt").exists()
    text = (out / "manifest.txt").read_text()
    assert "mesh" in text and "N=60" in text


def test_mesh_rect_subcommand(tmp_path):
    out = tmp_path / "m"
    code = run_cli(["--out", str(out), "mesh", "--rect", "12", "9",
                    "--xmax", "2.0", "--ymax", "1.0"])
    assert code == 0
    assert (out / "rect12x9.msh").exists()


def test_bell_subcommand(tmp_path, capsys):
    out = tmp_path / "b"
    code = run_cli(["--out", str(out), "bell", "--N", "60", "--scheme", "dcgm"])
    assert code == 0
    table = (out / "table1.csv").read_text().strip().splitlines()
    assert table[0].startswith("scheme,N,")
    assert len(table) == 2
    assert table[1].startswith("dcgm,60,")
    assert (out / "diag_dcgm_60.csv").exists()
    assert (out / "cut60.csv").exists()
    shown = capsys.readouterr().out
    assert "dcgm" in shown


DETERMINISM_RUNS = {
    "bell": ["bell", "--N", "40,50"],
    "bell-dirichlet": ["bell", "--dirichlet", "--N", "40"],
    "compare": ["compare", "--N", "40"],
    "convergence": ["convergence", "--N", "30,40,50"],
    "discont": ["discont", "--N", "40"],
    "heston": ["heston", "--nx", "10", "--ny", "10", "--steps", "3",
               "--T", "0.3", "--snapshot-every", "2"],
}


def _artifacts(out):
    """Every file a run wrote; the manifest drops its output-directory
    record, the only line allowed to differ between two runs."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    files["manifest.txt"] = [ln for ln in files["manifest.txt"].splitlines()
                             if not ln.startswith(b"out=")]
    return files


@pytest.mark.parametrize("name", list(DETERMINISM_RUNS))
def test_deterministic_artifacts(tmp_path, name):
    runs = [tmp_path / "r1", tmp_path / "r2"]
    for out in runs:
        assert run_cli(["--out", str(out)] + DETERMINISM_RUNS[name]) == 0
    first, second = (_artifacts(out) for out in runs)
    assert any(k.endswith(".csv") for k in first)
    assert first == second


@pytest.mark.parametrize("name", ["bell", "compare", "convergence", "discont",
                                  "heston"])
def test_csv_rows_fit_their_headers(tmp_path, name):
    # every row has one cell per header column, and every number is written
    # in full: formatting the value read back with .17g gives the cell again
    assert run_cli(["--out", str(tmp_path)] + DETERMINISM_RUNS[name]) == 0
    paths = sorted(tmp_path.glob("*.csv"))
    assert paths
    for path in paths:
        text = path.read_text()
        assert text.endswith("\n"), path.name
        header, *rows = text.splitlines()
        assert rows, path.name
        for row in rows:
            cells = row.split(",")
            assert len(cells) == header.count(",") + 1, (path.name, row)
            for cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a scheme name
                assert format(value, ".17g") == cell, (path.name, cell)


def test_discont_nu_reaches_the_solve(tmp_path):
    diags = []
    for extra in ([], ["--nu", "0.002"]):
        out = tmp_path / f"d{len(extra)}"
        assert run_cli(["--out", str(out)] + DETERMINISM_RUNS["discont"] + extra) == 0
        diags.append((out / "discont_diag.csv").read_bytes())
    assert diags[0] != diags[1]


def test_bell_numerics_reach_the_run(tmp_path):
    rows = []
    for extra in ([], ["--sigma", "0", "--quadrature", "midedge",
                       "--solver-tol", "1e-10"]):
        out = tmp_path / f"b{len(extra)}"
        assert run_cli(["--out", str(out), "bell", "--N", "40"] + extra) == 0
        rows.append((out / "table1.csv").read_text().splitlines()[1])
    params = BellParams(sigma=0, quadrature="midedge", solver_tol=1e-10)
    assert rows[1] == _row(_table_row(run_one_turn(40, "dcgm", params)))
    assert rows[1] != rows[0]


def test_bell_rejects_a_negative_tolerance(tmp_path, capsys):
    out = tmp_path / "tol"
    code = run_cli(["--out", str(out), "bell", "--N", "40", "--solver-tol", "-1"])
    assert code == 2
    assert "solver_tol" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_compare_subcommand(tmp_path):
    out = tmp_path / "c"
    assert run_cli(["--out", str(out), "compare", "--N", "60"]) == 0
    table = (out / "table2.csv").read_text().strip().splitlines()
    assert len(table) == 6  # header + four schemes + exact row
    schemes = [line.split(",")[0] for line in table[1:]]
    assert schemes == ["dcgm", "pcgm", "supg", "centered", "exact"]
    assert (out / "cut60_supg.csv").exists()
    # every scheme row writes its step diagnostics; the exact row has none
    for scheme in schemes[:-1]:
        assert (out / f"diag_{scheme}_60.csv").exists(), scheme
    assert not (out / "diag_exact_60.csv").exists()


def test_convergence_subcommand(tmp_path):
    out = tmp_path / "v"
    code = run_cli(["--out", str(out), "convergence", "--scheme", "dcgm",
                    "--N", "60,80,100"])
    assert code == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "N,vertices,h_max,l2_error,fitted_order"
    assert len(lines) == 4
    order = float(lines[-1].split(",")[-1])
    assert order > 1.0


def test_discont_subcommand(tmp_path):
    out = tmp_path / "d"
    assert run_cli(["--out", str(out), "discont", "--N", "60"]) == 0
    assert (out / "discont_diag.csv").exists()
    assert (out / "discont60.csv").exists()


def test_heston_subcommand(tmp_path):
    out = tmp_path / "h"
    code = run_cli(["--out", str(out), "heston", "--nx", "20", "--ny", "20",
                    "--steps", "3", "--T", "0.5"])
    assert code == 0
    diag = (out / "heston_diag.csv").read_text().strip().splitlines()
    assert diag[0] == "step,mass,min,max,price,boundary_mass"
    assert len(diag) == 4
    for line in diag[1:]:
        assert abs(float(line.split(",")[1]) - 1.0) < 1e-6
    assert (out / "heston_final.csv").exists()


def test_heston_snapshots(tmp_path):
    out = tmp_path / "hs"
    code = run_cli(["--out", str(out), "heston", "--nx", "15", "--ny", "15",
                    "--steps", "4", "--T", "0.4", "--snapshot-every", "2"])
    assert code == 0
    assert (out / "heston_step2.csv").exists()
    assert (out / "heston_step4.csv").exists()


def test_bad_flag_exits_2(tmp_path):
    assert run_cli(["--out", str(tmp_path), "bell", "--no-such-flag"]) == 2


def test_dirichlet_rejects_other_schemes(tmp_path, capsys):
    out = tmp_path / "dir"
    code = run_cli(["--out", str(out), "bell", "--N", "60", "--scheme", "supg",
                    "--dirichlet"])
    assert code == 2
    assert "--dirichlet" in capsys.readouterr().err
    assert not out.exists()


def test_bell_checks_every_size_before_any_run(tmp_path, capsys):
    out = tmp_path / "small"
    assert run_cli(["--out", str(out), "bell", "--N", "60,5"]) == 2
    assert "mesh size 5" in capsys.readouterr().err
    assert not out.exists()


def test_convergence_rejects_a_repeated_size(tmp_path, capsys):
    out = tmp_path / "repeat"
    assert run_cli(["--out", str(out), "convergence", "--N", "30,30,30"]) == 2
    assert "repeated mesh size" in capsys.readouterr().err
    assert not out.exists()


def test_convergence_needs_three_sizes(tmp_path, capsys):
    out = tmp_path / "two"
    assert run_cli(["--out", str(out), "convergence", "--N", "100,200"]) == 2
    assert "at least 3 mesh sizes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "discont"])
def test_single_size_commands_check_the_size(tmp_path, capsys, command):
    out = tmp_path / command
    assert run_cli(["--out", str(out), command, "--N", "5"]) == 2
    assert "mesh size 5" in capsys.readouterr().err
    assert not out.exists()


def test_heston_rejects_a_negative_snapshot_interval(tmp_path, capsys):
    out = tmp_path / "snap"
    code = run_cli(["--out", str(out), "heston", "--snapshot-every", "-2"])
    assert code == 2
    assert "--snapshot-every" in capsys.readouterr().err
    assert not out.exists()


def test_bell_rejects_zero_steps(tmp_path, capsys):
    out = tmp_path / "zero"
    code = run_cli(["--out", str(out), "bell", "--N", "40", "--steps", "0"])
    assert code != 0
    assert "n_steps" in capsys.readouterr().err
    assert not (out / "table1.csv").exists()


# valid parameters whose initial density underflows to 0 on the 5x5 grid:
# the library refuses the run once it has built the mesh
VANISHING_DENSITY = ["heston", "--nx", "5", "--ny", "5", "--steps", "2",
                     "--mu", "1000"]


def test_runtime_failure_exits_1(tmp_path, capsys):
    out = tmp_path / "x"
    code = run_cli(["--out", str(out)] + VANISHING_DENSITY)
    assert code == 1
    err = capsys.readouterr().err
    assert err.strip()
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("args, code", [
    (["mesh", "--N", "5"], 2),
    (["mesh", "--rect", "1", "5"], 2),
    (["heston", "--nx", "1", "--ny", "5", "--steps", "2"], 2),
    (["heston", "--nx", "5", "--ny", "5", "--steps", "0"], 2),
    (["bell", "--N", "40", "--steps", "0"], 2),
    (["bell", "--N", "40", "--nu", "-1"], 2),
    (["heston", "--nx", "5", "--ny", "5", "--steps", "2", "--T", "-1"], 2),
    (["discont", "--N", "40", "--solver-tol", "0"], 2),
    (VANISHING_DENSITY, 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_failed_command_leaves_no_directory(tmp_path, args, code):
    # a size, step count or parameter value no run can use is a usage error
    # before --out is made; a run that fails removes the --out it made, with
    # all its parents
    out = tmp_path / "new" / "out"
    assert run_cli(["--out", str(out)] + args) == code
    assert not (tmp_path / "new").exists()


def test_failed_command_keeps_a_directory_it_did_not_make(tmp_path):
    assert run_cli(["--out", str(tmp_path)] + VANISHING_DENSITY) == 1
    assert tmp_path.is_dir()


@pytest.mark.parametrize("args, field", [
    (["bell", "--x0", "nan", "0"], "x0"),
    (["bell", "--solver-tol", "0"], "solver_tol"),
    (["compare", "--r", "-1"], "r"),
    (["heston", "--strike", "0"], "strike"),
    (["mesh", "--rect", "5", "5", "--xmax", "-1"], "x_max"),
    (["mesh", "--rect", "5", "5", "--ymax", "inf"], "y_max"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_refused_parameters_are_usage_errors(tmp_path, capsys, args, field):
    # the run's parameters are built while parsing, so a value the library
    # refuses exits 2 with its message, before --out exists
    out = tmp_path / "p"
    assert run_cli(["--out", str(out)] + args) == 2
    assert f"error: {field} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, params", [
    ("bell", BellParams()), ("compare", BellParams()),
    ("convergence", BellParams()), ("discont", BellParams()),
    ("heston", HestonParams()),
])
def test_flag_defaults_are_the_library_defaults(command, params):
    # every default is written once in the parser and once in the library;
    # a bare command must run what the library runs by default
    assert _run_params(build_parser().parse_args([command])) == params
