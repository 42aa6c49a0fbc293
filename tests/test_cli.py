"""End-to-end CLI checks: artifacts, manifests, determinism, exit codes."""
import warnings

import pytest

from dcgm.bench import BellParams, run_one_turn
from dcgm.cli import _table_row, build_parser, main


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
    assert rows[1] == _table_row(run_one_turn(40, "dcgm", params))
    assert rows[1] != rows[0]


def test_bell_rejects_a_negative_tolerance(tmp_path, capsys):
    out = tmp_path / "tol"
    code = run_cli(["--out", str(out), "bell", "--N", "40", "--solver-tol", "-1"])
    assert code == 1
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


def test_bell_rejects_zero_steps(tmp_path, capsys):
    out = tmp_path / "zero"
    code = run_cli(["--out", str(out), "bell", "--N", "40", "--steps", "0"])
    assert code != 0
    assert "n_steps" in capsys.readouterr().err
    assert not (out / "table1.csv").exists()


def test_runtime_failure_exits_1(tmp_path, capsys):
    # a disk of 5 boundary points is rejected by the mesher
    code = run_cli(["--out", str(tmp_path / "x"), "mesh", "--N", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.strip()
    assert len(err.strip().splitlines()) == 1
