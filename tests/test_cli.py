"""End-to-end CLI checks: artifacts, manifests, determinism, exit codes."""
import warnings

import pytest

from dcgm.cli import build_parser, main


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


def test_bell_deterministic_artifacts(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        assert run_cli(["--out", str(out), "bell", "--N", "60"]) == 0
    for name in ("table1.csv", "diag_dcgm_60.csv", "cut60.csv"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, name
    # manifests agree except for the output-directory record itself
    keep = lambda p: [ln for ln in (p / "manifest.txt").read_text().splitlines()
                      if str(tmp_path) not in ln]
    assert keep(out1) == keep(out2)


def test_compare_subcommand(tmp_path):
    outs = [tmp_path / "c1", tmp_path / "c2"]
    for out in outs:
        assert run_cli(["--out", str(out), "compare", "--N", "60"]) == 0
    out = outs[0]
    table = (out / "table2.csv").read_text().strip().splitlines()
    assert len(table) == 6  # header + four schemes + exact row
    schemes = [line.split(",")[0] for line in table[1:]]
    assert schemes == ["dcgm", "pcgm", "supg", "centered", "exact"]
    assert (out / "cut60_supg.csv").exists()
    # every scheme row writes its step diagnostics; the exact row has none
    for scheme in schemes[:-1]:
        assert (out / f"diag_{scheme}_60.csv").exists(), scheme
    assert not (out / "diag_exact_60.csv").exists()
    for name in ("table2.csv", "diag_supg_60.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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
