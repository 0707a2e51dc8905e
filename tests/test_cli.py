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


def test_input_too_large_to_allocate_is_an_error_not_a_traceback(tmp_path, capsys):
    # d = 100000 asks for a 149 GiB matrix; should the allocation succeed
    # after all, the --dim mismatch fails the same way.
    mfile = tmp_path / "big.csv"
    mfile.write_text("row,col,re,im\n100000,0,0,0\n")
    assert run("compute", "--input", mfile, "--dim", 4, "--n", 8) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""



def test_input_index_beyond_dim_names_the_mismatch(tmp_path, capsys):
    mfile = tmp_path / "big.csv"
    mfile.write_text("row,col,re,im\n0,0,1,0\n100000,0,0,0\n")
    assert run("compute", "--input", mfile, "--dim", 4, "--n", 8) == 1
    assert capsys.readouterr().err == (
        "error: matrix CSV index 100000 does not fit a 4 x 4 matrix\n")


def test_precompute_has_no_workers_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("precompute", "--dim", 4, "--workers", 2, "--out", tmp_path / "c")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv, removed", [
    (("precompute", "--dim", 4), "--force"),
    (("bench", "--dims", 6, "--methods", "c"), "--seed 7"),
])
def test_removed_options_are_refused(tmp_path, capsys, argv, removed):
    with pytest.raises(SystemExit) as exit_info:
        run(*argv, *removed.split(), "--out", tmp_path / "out")
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {removed}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_precompute_rejects_workers_below_one(tmp_path, capsys, workers):
    # There is no --workers option, so any count, below one included, is refused.
    with pytest.raises(SystemExit) as exit_info:
        run("precompute", "--dim", 4, "--workers", workers, "--out", tmp_path / "c")
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: --workers {workers}" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("s, message", [("5", "outside [-1, 1]"),
                                        ("nan", "must be a finite real number")])
def test_precompute_rejects_bad_s_before_making_a_directory(tmp_path, capsys, s, message):
    root = tmp_path / "pc"
    assert run("precompute", "--dim", 4, "--s", s, "--cache", root) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert not root.exists() or not any(root.iterdir())


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
    # nor a thread pool: the K cache is built in one serial loop
    probe = ("import sys, spinphase.cli; "
             "print([m for m in ('scipy.linalg', 'concurrent.futures', 'logging') "
             "if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"


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


def test_rank_one_table_loads_no_scipy(tmp_path):
    # Method c's rank-one path transforms with np.fft alone, and builds no K.
    probe = ("import sys\n"
             "from spinphase import fourier\n"
             "from spinphase.cli import main\n"
             "def refused(*args):\n"
             "    raise AssertionError('K built')\n"
             "fourier._k_matrix = refused\n"
             "code = main(sys.argv[1:])\n"
             "print(code, 'scipy' in sys.modules)\n")
    args = ["compute", "--state", "coherent", "--param", "theta0=0.7", "--param", "phi0=1.9",
            "--dim", "40", "--n", "80", "--method", "c", "--format", "bin",
            "--out", str(tmp_path / "g.bin")]
    result = subprocess.run([sys.executable, "-c", probe, *args], env=_child_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("state, param, name", [
    ("squeezed", "xi=inf", "xi"),
    ("squeezed", "xi=1e308", "xi"),
    ("coherent", "theta0=nan", "theta0"),
    ("coherent", "phi0=-inf", "phi0"),
])
def test_non_finite_state_parameter_is_one_error_line(state, param, name):
    # A child process, so NumPy warnings would reach stderr as they do for a user.
    result = subprocess.run(
        [sys.executable, "-m", "spinphase.cli", "compute", "--state", state,
         "--param", param, "--dim", "4"],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name} = ")
    assert "Warning" not in result.stderr


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


@pytest.mark.parametrize("argv", [
    ["precompute", "--dim", 6, "--s", 0],
    ["compute", "--method", "d", "--state", "ghz", "--dim", 6, "--n", 12],
    ["deriv", "--method", "d", "--variable", "theta", "--state", "ghz", "--dim", 6,
     "--n", 12],
], ids=["precompute", "compute", "deriv"])
def test_no_cache_root_is_an_error(monkeypatch, capsys, argv):
    monkeypatch.delenv("SPINPHASE_CACHE", raising=False)
    assert run(*argv) == 1
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


@pytest.mark.parametrize("state,param,accepted", [
    ("coherent", "theta=1.2", "theta0, phi0"),
    ("squeezed", "chi=0.3", "xi"),
    ("ghz", "m=1", "none"),
])
def test_state_rejects_keys_it_does_not_take(capsys, state, param, accepted):
    assert run("compute", "--state", state, "--param", param, "--dim", 4,
               "--n", 8) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"accepted keys: {accepted})" in err


def test_param_with_input_is_an_error(tmp_path, capsys):
    path = tmp_path / "rho.bin"
    write_matrix(path, random_density(SpinDimension.from_d(3), 1))
    assert run("compute", "--input", path, "--param", "seed=1", "--dim", 3,
               "--n", 8) == 1
    assert "--param does not apply to --input" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["compute"], ["deriv", "--variable", "theta"]])
@pytest.mark.parametrize("options,message", [
    (["--format", "bin"], "binary output needs --out"),
    (["--format", "bin", "--out", "never.bin", "--window-theta-max", "1"],
     "windows are only available with --format csv"),
    (["--format", "bin", "--out", "never.bin", "--window-phi", "0", "1"],
     "windows are only available with --format csv"),
])
def test_output_options_are_checked_before_any_work(monkeypatch, capsys, command,
                                                     options, message):
    def no_table(*args):
        raise AssertionError("the table was computed before the output options were checked")

    monkeypatch.setattr("spinphase.cli.fourier_coefficients_method_c", no_table)
    assert run(*command, "--state", "ghz", "--dim", 4, "--n", 8, *options) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_import_does_not_load_the_bench_harness():
    probe = ("import sys, spinphase.cli; "
             "print([m for m in ('spinphase.bench', 'statistics', 'tracemalloc') "
             "if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"


def test_a_table_route_is_added_in_one_place(monkeypatch, tmp_path):
    from spinphase import cli
    from spinphase.bench import run_bench
    from spinphase.fourier import FourierTable

    prepared = []

    def route_z(dim, s, cache_root):
        prepared.append((dim.d, s))
        coeffs = np.zeros((2 * dim.two_j + 1,) * 2, dtype=complex)
        coeffs[dim.two_j, dim.two_j] = 1.0  # F_00 alone: a constant function
        return lambda rho: FourierTable(dim, s, coeffs)

    monkeypatch.setitem(cli.TABLE_ROUTES, "z", route_z)
    parser = cli.build_parser()
    for command in (["compute"], ["deriv", "--variable", "phi"]):
        args = parser.parse_args([*command, "--state", "ghz", "--dim", "3",
                                  "--method", "z"])
        assert args.method == "z"

    out = tmp_path / "z.csv"
    assert run("compute", "--state", "ghz", "--dim", 3, "--n", 8, "--method", "z",
               "--out", out) == 0
    with open(out) as fh:
        _, _, values = read_grid_csv(fh)
    assert np.allclose(values, values[0, 0]) and abs(values[0, 0]) > 0

    report = run_bench([3, 4], methods=("z",), repetitions=3, measure_memory=False)
    assert [(row.method, row.d, row.status) for row in report.rows] == [
        ("z", 3, "ok"), ("z", 4, "ok")]
    assert prepared == [(3, 0.0), (3, 0.0), (4, 0.0)]


def test_imprecise_grid_warns_on_one_line_and_writes_the_same_grid(tmp_path, capsys):
    # Glauber grids of this state have E / peak = 1.9e-6 at d = 40, 4e-12 at d = 20.
    import io

    from spinphase.fourier import fourier_coefficients_method_c
    from spinphase.gridfile import write_grid_csv
    from spinphase.parity import build_parity
    from spinphase.sampling import sample_fft
    from spinphase.states import coherent

    state = ["--state", "coherent", "--param", "theta0=0.7", "--param", "phi0=1.9",
             "--kind", "glauber"]
    for d, warns in ((20, False), (40, True)):
        out = tmp_path / f"g{d}.csv"
        assert run("compute", *state, "--dim", d, "--n", 2 * d, "--out", out) == 0
        err = capsys.readouterr().err
        if warns:
            assert err.startswith("warning: rounding may reach 1.9e-06 of the grid's peak")
            assert err.count("\n") == 1
        else:
            assert err == ""
        dim = SpinDimension.from_d(d)
        table = fourier_coefficients_method_c(coherent(dim, 0.7, 1.9), build_parity(dim, 1.0))
        expected = io.StringIO()
        write_grid_csv(expected, sample_fft(table, 2 * d, method="c"))
        assert out.read_text() == expected.getvalue()
    assert run("deriv", "--variable", "grad", *state, "--dim", 40, "--n", 80,
               "--out", tmp_path / "g.csv") == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: rounding may reach ") and err.count("\n") == 1
