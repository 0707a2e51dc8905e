import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinphase
from spinphase.angular import SpinDimension
from spinphase.cli import main
from spinphase.gridfile import read_grid, read_grid_csv, write_matrix
from spinphase.states import random_density


def run(*argv):
    return main([str(a) for a in argv])


def test_precompute_reports_payload(tmp_path, capsys):
    assert run("precompute", "--dim", 10, "--s", 0, "--out", tmp_path / "c") == 0
    out = capsys.readouterr().out
    assert "30400 bytes (30.4 kB)" in out
    assert "1760 bytes" in out
    assert run("precompute", "--dim", 10, "--s", 0, "--out", tmp_path / "c") == 0
    assert "verified" in capsys.readouterr().out


def test_precompute_rejects_dimension_one(capsys):
    assert run("precompute", "--dim", 1, "--s", 0, "--out", "/tmp/never") == 1
    assert "at least 2" in capsys.readouterr().err


def test_compute_methods_agree(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run("precompute", "--dim", 9, "--kind", "wigner",
               "--cache", cache) == 0
    out_c = tmp_path / "c.bin"
    out_d = tmp_path / "d.bin"
    assert run("compute", "--state", "ghz", "--dim", 9, "--s", 0, "--n", 64,
               "--method", "c", "--format", "bin", "--out", out_c) == 0
    assert run("compute", "--state", "ghz", "--dim", 9, "--s", 0, "--n", 64,
               "--method", "d", "--cache", cache, "--format", "bin",
               "--out", out_d) == 0
    grid_c, _ = read_grid(out_c)
    grid_d, _ = read_grid(out_d)
    assert np.abs(grid_c.values - grid_d.values).max() < 1e-12


def test_compute_method_d_needs_cache(tmp_path, capsys):
    assert run("compute", "--state", "ghz", "--dim", 9, "--n", 40,
               "--method", "d", "--cache", tmp_path) == 1
    assert "incomplete or absent" in capsys.readouterr().err


def test_compute_rejects_bad_grid_size(tmp_path, capsys):
    assert run("compute", "--state", "ghz", "--dim", 9, "--n", 10,
               "--method", "c") == 1
    assert "4J+2" in capsys.readouterr().err


def test_compute_overflow_is_explicit(capsys):
    assert run("compute", "--state", "mixed", "--dim", 1200, "--kind", "glauber",
               "--n", 2400, "--method", "c") == 1
    assert "overflow" in capsys.readouterr().err.lower()


def test_compute_from_matrix_file_matches_state(tmp_path, capsys):
    dim = SpinDimension.from_d(6)
    rho = random_density(dim, 5)
    mfile = tmp_path / "rho.bin"
    write_matrix(mfile, rho)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run("compute", "--input", mfile, "--dim", 6, "--n", 12,
               "--method", "c", "--out", out_a) == 0
    assert run("compute", "--state", "random", "--param", "seed=5", "--dim", 6,
               "--n", 12, "--method", "c", "--out", out_b) == 0
    with open(out_a) as fh:
        _, _, va = read_grid_csv(fh)
    with open(out_b) as fh:
        _, _, vb = read_grid_csv(fh)
    assert np.array_equal(va, vb)


@pytest.mark.parametrize("method", ["c", "b", "direct"])
def test_non_finite_input_matrix_is_an_error(tmp_path, capsys, method):
    rho = np.eye(2, dtype=complex) / 2.0
    rho[0, 1] = np.nan
    mfile = tmp_path / "rho.bin"
    write_matrix(mfile, rho)
    assert run("compute", "--input", mfile, "--dim", 2, "--n", 4,
               "--method", method) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "non-finite" in captured.err
    assert captured.out == ""


def test_csv_input_with_a_negative_index_is_an_error(tmp_path, capsys):
    mfile = tmp_path / "bad.csv"
    mfile.write_text("row,col,re,im\n-1,0,0.25,0\n0,0,0.5,0\n1,1,0.5,0\n")
    assert run("compute", "--input", mfile, "--dim", 2, "--n", 4) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "non-negative integers" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("body, message", [("", "no entries"),
                                           ("0,0\n1,1\n", "4 fields")])
def test_csv_input_without_full_rows_is_an_error(tmp_path, capsys, body, message):
    mfile = tmp_path / "bad.csv"
    mfile.write_text("row,col,re,im\n" + body)
    assert run("compute", "--input", mfile, "--dim", 2, "--n", 4) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("workers", [0, -3])
def test_precompute_rejects_workers_below_one(tmp_path, capsys, workers):
    assert run("precompute", "--dim", 4, "--workers", workers, "--out", tmp_path / "c") == 1
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_method_d_checks_s_but_builds_no_parity(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    assert run("precompute", "--dim", 5, "--s", 0, "--cache", cache) == 0
    assert run("compute", "--state", "ghz", "--dim", 5, "--s", 1.5, "--n", 10,
               "--method", "d", "--cache", cache) == 1
    assert "outside [-1, 1]" in capsys.readouterr().err

    def no_parity(*args, **kwargs):
        raise AssertionError("method d built a parity operator")

    monkeypatch.setattr("spinphase.cli.build_parity", no_parity)
    assert run("compute", "--state", "ghz", "--dim", 5, "--s", 0, "--n", 10,
               "--method", "d", "--cache", cache) == 0


def test_truncated_input_is_an_error_not_a_traceback(tmp_path, capsys):
    mfile = tmp_path / "rho.bin"
    write_matrix(mfile, random_density(SpinDimension.from_d(4), 1))
    mfile.write_bytes(mfile.read_bytes()[:-20])
    assert run("compute", "--input", mfile, "--dim", 4, "--n", 12,
               "--method", "c") == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_unwritable_out_is_an_error_and_reports_no_write(tmp_path, capsys, fmt):
    out = tmp_path / "missing" / f"g.{fmt}"
    assert run("compute", "--state", "ghz", "--dim", 4, "--n", 12,
               "--method", "c", "--format", fmt, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "missing" in captured.err
    assert "wrote" not in captured.out
    assert not out.exists()


def _child_env():
    return dict(os.environ, PYTHONPATH=str(Path(spinphase.__file__).resolve().parents[1]))


def test_cli_import_does_not_load_scipy_linalg():
    probe = "import sys, spinphase.cli; print('scipy.linalg' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    # squeezed states need the J_x basis as well as the J_y one
    ["compute", "--state", "squeezed", "--param", "xi=0.3", "--dim", 9, "--n", 32,
     "--method", "c", "--format", "bin", "--out", "{tmp}/g.bin"],
    ["precompute", "--dim", 6, "--s", 0, "--out", "{tmp}/cache"],
])
def test_cli_commands_load_no_scipy(tmp_path, argv):
    probe = ("import sys\n"
             "from spinphase.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    args = [str(a).format(tmp=tmp_path) for a in argv]
    result = subprocess.run([sys.executable, "-c", probe, *args], env=_child_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.splitlines()[-1] == "0 []"


def test_closed_stdout_exits_quietly():
    # 512^2 CSV rows are far more than a pipe buffer holds, so the child
    # writes into the closed pipe.
    child = subprocess.Popen(
        [sys.executable, "-m", "spinphase.cli", "compute", "--state", "ghz",
         "--dim", "9", "--n", "512"],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert child.stdout.readline() == b"theta,phi,re,im\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 1
    finally:
        child.kill()
        child.wait()
        child.stderr.close()
    assert err == b""


def test_csv_and_binary_outputs_decode_identically(tmp_path):
    out_bin = tmp_path / "g.bin"
    out_csv = tmp_path / "g.csv"
    for fmt, out in (("bin", out_bin), ("csv", out_csv)):
        assert run("compute", "--state", "squeezed", "--param", "xi=0.2",
                   "--dim", 7, "--n", 16, "--method", "c",
                   "--format", fmt, "--out", out) == 0
    grid, _ = read_grid(out_bin)
    with open(out_csv) as fh:
        _, _, values = read_grid_csv(fh)
    scale = np.abs(grid.values).max()
    assert np.abs(values - grid.values).max() < 1e-16 * scale


def test_window_outputs_subset(tmp_path):
    out = tmp_path / "w.csv"
    n = 16
    assert run("compute", "--state", "coherent", "--param", "theta0=0.2",
               "--dim", 5, "--n", n, "--method", "c", "--out", out,
               "--window-theta-max", np.pi / n) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert data.shape[0] == 2 * n  # two theta rows, all phi columns
    assert np.unique(data[:, 0]).size == 2


def test_deriv_mixed_state_is_zero(tmp_path):
    out = tmp_path / "zero.csv"
    assert run("deriv", "--state", "mixed", "--dim", 6, "--n", 12,
               "--method", "c", "--variable", "theta", "--out", out) == 0
    with open(out) as fh:
        _, _, values = read_grid_csv(fh)
    assert np.abs(values).max() < 1e-14


def test_deriv_grad_writes_both_components(tmp_path):
    out = tmp_path / "g.csv"
    assert run("deriv", "--state", "dicke", "--param", "m=1", "--dim", 7,
               "--n", 16, "--method", "c", "--variable", "grad",
               "--out", out) == 0
    with open(tmp_path / "g.dtheta.csv") as fh:
        _, _, dtheta = read_grid_csv(fh)
    with open(tmp_path / "g.dphi.csv") as fh:
        _, _, dphi = read_grid_csv(fh)
    assert np.abs(dphi).max() < 1e-14  # axial symmetry
    assert np.abs(dtheta).max() > 1e-3


def test_state_parameter_validation(capsys):
    assert run("compute", "--state", "dicke", "--dim", 5, "--n", 12,
               "--method", "c") == 1
    assert "m=" in capsys.readouterr().err
    assert run("compute", "--state", "random", "--dim", 5, "--n", 12,
               "--method", "c") == 1
    assert "seed" in capsys.readouterr().err


def test_bench_cli_reports_and_skips(tmp_path, capsys):
    assert run("bench", "--dims", "4,6", "--methods", "c,d", "--reps", 3) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert lines[0] == "method,d,time_s,fft_s,peak_mem_mb,status"
    skipped = [line for line in lines[1:] if line.endswith("skipped")]
    assert len(skipped) == 2  # no cache root given: both d rows skipped
    assert any(line.startswith("# loglog_slope c") for line in out.splitlines())


def test_fig2a_configuration_runs(tmp_path):
    # GHZ for N = 64 qubits on a 1024 x 1024 grid via the cached method.
    cache = tmp_path / "cache"
    assert run("precompute", "--dim", 65, "--s", 0, "--cache", cache) == 0
    out = tmp_path / "ghz65.bin"
    assert run("compute", "--state", "ghz", "--dim", 65, "--s", 0, "--n", 1024,
               "--method", "d", "--cache", cache, "--format", "bin",
               "--out", out) == 0
    grid, desc = read_grid(out)
    assert grid.n == 1024 and grid.dim.d == 65
    assert desc == "ghz"
    assert grid.imag_residual() < 1e-10
    # equatorial interference fringes: strong phi oscillation at theta = pi/2
    equator = grid.values[512].real
    assert equator.max() > 0 and equator.min() < 0


def test_fig2b_configuration_runs(tmp_path):
    out = tmp_path / "dicke129.csv"
    assert run("compute", "--state", "dicke", "--param", "m=0", "--dim", 129,
               "--s", 0, "--n", 260, "--method", "c", "--out", out) == 0
    with open(out) as fh:
        _, _, values = read_grid_csv(fh)
    spread = np.abs(values - values[:, :1]).max()
    assert spread < 1e-9  # axial symmetry of the balanced configuration


def test_cache_root_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPINPHASE_CACHE", str(tmp_path))
    assert run("precompute", "--dim", 6, "--s", 0) == 0
    assert (tmp_path / "d0006_s0.0" / "manifest.json").exists()
    assert run("compute", "--state", "ghz", "--dim", 6, "--n", 12,
               "--method", "d", "--out", tmp_path / "g.csv") == 0
    capsys.readouterr()


def test_no_cache_root_is_an_error(monkeypatch, capsys):
    monkeypatch.delenv("SPINPHASE_CACHE", raising=False)
    assert run("precompute", "--dim", 6, "--s", 0) == 1
    assert "SPINPHASE_CACHE" in capsys.readouterr().err


def test_half_integer_dicke_parameter(tmp_path):
    out = tmp_path / "half.csv"
    assert run("compute", "--state", "dicke", "--param", "m=0.5", "--dim", 6,
               "--n", 12, "--method", "c", "--out", out) == 0
    with open(out) as fh:
        _, _, values = read_grid_csv(fh)
    assert np.abs(values - values[:, :1]).max() < 1e-11


def test_glauber_alias_small_dimension(tmp_path):
    out = tmp_path / "p.csv"
    assert run("compute", "--state", "coherent", "--param", "theta0=0.4",
               "--dim", 4, "--kind", "glauber", "--n", 10, "--method", "c",
               "--out", out) == 0
    with open(out) as fh:
        _, _, values = read_grid_csv(fh)
    assert np.all(np.isfinite(values))


def test_deriv_from_cache(tmp_path):
    cache = tmp_path / "cache"
    assert run("precompute", "--dim", 7, "--s", 0, "--cache", cache) == 0
    out_d = tmp_path / "c.csv"
    out_c = tmp_path / "d.csv"
    assert run("deriv", "--state", "ghz", "--dim", 7, "--n", 16, "--method", "d",
               "--cache", cache, "--variable", "theta", "--out", out_d) == 0
    assert run("deriv", "--state", "ghz", "--dim", 7, "--n", 16, "--method", "c",
               "--variable", "theta", "--out", out_c) == 0
    with open(out_d) as fh:
        _, _, vd = read_grid_csv(fh)
    with open(out_c) as fh:
        _, _, vc = read_grid_csv(fh)
    assert np.abs(vd - vc).max() < 1e-12
