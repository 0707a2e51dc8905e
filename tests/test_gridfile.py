import io
import warnings

import numpy as np
import pytest

from spinphase.angular import SpinDimension
from spinphase.fourier import fourier_coefficients_method_c
from spinphase.gridfile import (GridFileError, load_matrix, read_grid, read_grid_csv,
                                read_matrix, read_matrix_csv, write_grid,
                                write_grid_csv, write_matrix, write_matrix_csv)
from spinphase.parity import build_parity
from spinphase.sampling import PhaseSpaceGrid, sample_fft, window_extract
from spinphase.states import random_density


@pytest.fixture
def grid():
    dim = SpinDimension.from_d(5)
    rho = random_density(dim, 9)
    table = fourier_coefficients_method_c(rho, build_parity(dim, -0.5))
    return sample_fft(table, 12)


def test_binary_roundtrip_bit_identical(grid, tmp_path):
    path = tmp_path / "g.bin"
    write_grid(path, grid, "roundtrip check")
    loaded, desc = read_grid(path)
    assert desc == "roundtrip check"
    assert loaded.dim.d == 5 and loaded.n == 12 and loaded.s == -0.5
    assert loaded.method == grid.method
    assert np.array_equal(loaded.values, grid.values)


def test_csv_roundtrip_within_print_precision(grid):
    buf = io.StringIO()
    write_grid_csv(buf, grid)
    buf.seek(0)
    thetas, phis, values = read_grid_csv(buf)
    assert np.array_equal(thetas, np.unique(grid.thetas()))
    scale = np.abs(grid.values).max()
    assert np.abs(values - grid.values).max() < 1e-16 * scale


def _reference_csv(thetas, phis, values) -> str:
    """The per-sample formatter the row encoder must reproduce byte for byte."""
    lines = ["theta,phi,re,im\n"]
    for k, theta in enumerate(thetas):
        for l, phi in enumerate(phis):
            v = values[k, l]
            lines.append(f"{theta:.17g},{phi:.17g},{v.real:.17g},{v.imag:.17g}\n")
    return "".join(lines)


def test_csv_bytes_match_per_sample_format_on_extreme_values():
    n = 6
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -5e-324, -1e308]
    values = np.random.default_rng(4).standard_normal((n, n, 2)) * 1e-7
    values = values[..., 0] + 1j * values[..., 1]
    for i, x in enumerate(special):
        values[0, i % n] = complex(x, special[-1 - i])
        values[1 + i % (n - 1), i % n] = complex(special[-1 - i], x)
    grid = PhaseSpaceGrid(dim=SpinDimension.from_d(2), s=0.0, n=n,
                          values=values, method="c")
    buf = io.StringIO()
    write_grid_csv(buf, grid)
    assert buf.getvalue() == _reference_csv(grid.thetas(), grid.phis(), values)
    for token in ("-0,", "nan", "-inf", "4.9406564584124654e-324", "1e+308"):
        assert token in buf.getvalue()


def test_csv_bytes_match_per_sample_format_on_window(grid):
    window = window_extract(grid, 1.3, (0.4, 3.5))
    assert 0 < window.values.shape[0] < grid.n and 0 < window.values.shape[1] < grid.n
    buf = io.StringIO()
    write_grid_csv(buf, window)
    assert buf.getvalue() == _reference_csv(window.thetas, window.phis, window.values)


def test_corrupted_payload_detected(grid, tmp_path):
    path = tmp_path / "g.bin"
    write_grid(path, grid)
    raw = bytearray(path.read_bytes())
    raw[60] ^= 0x10
    path.write_bytes(raw)
    with pytest.raises(GridFileError, match="checksum"):
        read_grid(path)


def test_truncated_file_detected(tmp_path):
    path = tmp_path / "g.bin"
    path.write_bytes(b"SWPG")
    with pytest.raises(GridFileError, match="truncated"):
        read_grid(path)


def test_matrix_container_roundtrip(tmp_path):
    rho = random_density(SpinDimension.from_d(7), 31)
    path = tmp_path / "m.bin"
    write_matrix(path, rho, "state")
    assert np.array_equal(read_matrix(path), rho)
    assert np.array_equal(load_matrix(path), rho)


def test_matrix_and_grid_kinds_do_not_mix(grid, tmp_path):
    gpath = tmp_path / "g.bin"
    write_grid(gpath, grid)
    with pytest.raises(GridFileError, match="matrix"):
        read_matrix(gpath)
    mpath = tmp_path / "m.bin"
    write_matrix(mpath, random_density(SpinDimension.from_d(3), 0))
    with pytest.raises(GridFileError, match="grid"):
        read_grid(mpath)


def test_matrix_csv_roundtrip(tmp_path):
    rho = random_density(SpinDimension.from_d(6), 17)
    buf = io.StringIO()
    write_matrix_csv(buf, rho)
    buf.seek(0)
    back = read_matrix_csv(buf)
    assert np.abs(back - rho).max() < 1e-16

    path = tmp_path / "m.csv"
    with open(path, "w") as fh:
        write_matrix_csv(fh, rho)
    assert np.abs(load_matrix(path) - rho).max() < 1e-16


def test_description_that_is_not_utf8_is_a_grid_file_error(grid, tmp_path):
    path = tmp_path / "g.bin"
    write_grid(path, grid, "caf\u00e9")
    raw = path.read_bytes()
    accent = raw.index("\u00e9".encode("utf-8"))
    path.write_bytes(raw[:accent + 1] + b"(" + raw[accent + 2:])  # cut mid-character
    with pytest.raises(GridFileError, match="UTF-8"):
        read_grid(path)


@pytest.mark.parametrize("index", ["-1,0", "0,-1", "1.7,0", "0,0.5", "nan,0", "0,inf"])
def test_matrix_csv_rejects_bad_indices(tmp_path, index):
    path = tmp_path / "m.csv"
    path.write_text(f"row,col,re,im\n0,0,0.5,0\n1,1,0.5,0\n{index},0.25,0\n")
    with pytest.raises(GridFileError, match="non-negative integers"):
        load_matrix(path)


@pytest.mark.parametrize("reader, header", [(read_matrix_csv, "row,col,re,im"),
                                            (read_grid_csv, "theta,phi,re,im")])
def test_header_only_csv_is_an_error_without_a_warning(reader, header):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridFileError, match="no entries"):
            reader(io.StringIO(header + "\n"))


def test_matrix_csv_rejects_short_rows():
    with pytest.raises(GridFileError, match="4 fields, got 2"):
        read_matrix_csv(io.StringIO("row,col,re,im\n0,0\n1,1\n"))
