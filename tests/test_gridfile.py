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


def _reference_container(d, s, n, tag, description, values) -> bytes:
    """The container as one bytes object: header + description + payload + CRC."""
    import struct
    import zlib

    desc = description.encode("utf-8")
    payload = np.ascontiguousarray(values, dtype="<c16").tobytes()
    head = struct.pack("<4sIIdIBH", b"SWPG", 1, d, s, n, tag, len(desc))
    return head + desc + payload + struct.pack("<I", zlib.crc32(payload))


def test_written_files_equal_the_one_piece_container(grid, tmp_path):
    write_grid(tmp_path / "g.bin", grid, "piecewise \u00e9")
    expected = _reference_container(5, -0.5, 12, 0x43, "piecewise \u00e9", grid.values)
    assert (tmp_path / "g.bin").read_bytes() == expected
    # A 6 x 6 view holds a d = 3 grid: d = 5 needs n >= 10.
    strided = PhaseSpaceGrid(dim=SpinDimension.from_d(3), s=grid.s, n=6,
                             values=grid.values[::2, ::2], method="deriv-phi")
    write_grid(tmp_path / "w.bin", strided)
    expected = _reference_container(3, -0.5, 6, 0x50, "", grid.values[::2, ::2])
    assert (tmp_path / "w.bin").read_bytes() == expected
    rho = random_density(SpinDimension.from_d(4), 2).T  # Fortran order
    write_matrix(tmp_path / "m.bin", rho, "rho")
    assert (tmp_path / "m.bin").read_bytes() == _reference_container(4, 0.0, 4, 0x4D, "rho", rho)


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


@pytest.mark.parametrize("d, s", [(1, 0.0), (0, 0.0), (4, 0.0), (3, np.nan), (3, 5.0)])
def test_impossible_header_is_a_grid_file_error(tmp_path, d, s):
    # A d = 3, n = 6 grid whose header is rewritten under an intact payload CRC;
    # d = 4 needs n >= 8.
    values = np.arange(36, dtype=complex).reshape(6, 6)
    path = tmp_path / "g.bin"
    path.write_bytes(_reference_container(3, 0.0, 6, 0x43, "", values))
    assert np.array_equal(read_grid(path)[0].values, values)
    path.write_bytes(_reference_container(d, s, 6, 0x43, "", values))
    with pytest.raises(GridFileError, match="impossible grid header"):
        read_grid(path)


@pytest.mark.parametrize("d, s, n", [(5, 0.0, 6), (3, 0.0, 7), (3, np.nan, 6), (3, 5.0, 6)])
def test_write_grid_refuses_a_header_read_grid_refuses(tmp_path, d, s, n):
    grid = PhaseSpaceGrid(dim=SpinDimension.from_d(d), s=s, n=n,
                          values=np.zeros((n, n), dtype=complex), method="c")
    path = tmp_path / "g.bin"
    with pytest.raises(GridFileError, match="impossible grid header"):
        write_grid(path, grid)
    assert not path.exists()


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


def test_matrix_csv_index_beyond_the_expected_d_fails_before_allocating(tmp_path):
    # Sized from the index alone, a 1e15 x 1e15 matrix could never be allocated;
    # with the expected d the reader refuses the row before it tries.
    path = tmp_path / "m.csv"
    for row in ("4,0,0,0", "0,4,0,0", "1000000000000000,0,0,0"):
        path.write_text(f"row,col,re,im\n0,0,1,0\n{row}\n")
        with pytest.raises(GridFileError, match="does not fit a 4 x 4 matrix"):
            load_matrix(path, 4)
        with open(path) as fh, pytest.raises(GridFileError, match="does not fit"):
            read_matrix_csv(fh, 4)
    # Indices below d keep sizing the matrix by the largest one, as without d.
    path.write_text("row,col,re,im\n0,0,0.5,0\n2,2,0.5,0\n")
    assert load_matrix(path, 4).shape == (3, 3)
    assert load_matrix(path).shape == (3, 3)
