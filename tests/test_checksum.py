import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import spinphase
from spinphase import _checksum
from spinphase._checksum import crc32
from spinphase.angular import SpinDimension
from spinphase.fourier import fourier_coefficients_method_c
from spinphase.gridfile import GridFileError, read_grid, write_grid, write_matrix
from spinphase.kcache import CacheCorruptError, fourier_coefficients_method_d, precompute_cache
from spinphase.parity import build_parity
from spinphase.sampling import sample_fft
from spinphase.states import random_density

HAVE_LIBDEFLATE = _checksum._implementation() is not zlib.crc32


def _force_zlib(monkeypatch):
    monkeypatch.setattr(_checksum, "_implementation", lambda: zlib.crc32)


@pytest.fixture
def fast():
    if not HAVE_LIBDEFLATE:
        pytest.skip("libdeflate is not installed; zlib.crc32 is the only implementation")


@pytest.fixture(params=["libdeflate", "zlib"])
def either(request, monkeypatch):
    """Runs a test once on the fast path and once with zlib forced."""
    if request.param == "zlib":
        _force_zlib(monkeypatch)
    elif not HAVE_LIBDEFLATE:
        pytest.skip("libdeflate is not installed")


def test_known_answer(either):
    assert crc32(b"123456789") == 0xCBF43926


def test_equals_zlib_for_short_and_long_buffers(fast):
    data = np.random.default_rng(0).integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()
    for length in range(65):
        assert crc32(data[:length]) == zlib.crc32(data[:length])
        assert crc32(bytearray(data[:length])) == zlib.crc32(data[:length])  # writable
    assert crc32(data) == zlib.crc32(data)


def test_unaligned_memoryview_slices(fast):
    data = bytes(range(256)) * 40
    writable = np.frombuffer(bytearray(data), dtype=np.uint8)
    for offset in range(1, 8):
        view = memoryview(data)[offset:offset + 4099]
        assert crc32(view) == zlib.crc32(view)
        assert crc32(writable[offset:offset + 4099]) == zlib.crc32(view)


def test_buffer_kinds(fast):
    rng = np.random.default_rng(1)
    array = np.ascontiguousarray(rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9)),
                                 dtype="<c16")
    expected = zlib.crc32(array)
    assert crc32(array) == expected
    assert crc32(array.tobytes()) == expected
    assert crc32(bytearray(array.tobytes())) == expected
    array.setflags(write=False)
    assert crc32(array) == expected


@pytest.mark.parametrize("change", [
    {"_SONAMES": ("libdeflate-not-installed.so.0",)},
    {"_KNOWN_CRC": 0},  # a library that gives a wrong answer is not used
])
def test_falls_back_to_zlib(monkeypatch, change):
    for name, value in change.items():
        monkeypatch.setattr(_checksum, name, value)
    assert _checksum._implementation.__wrapped__() is zlib.crc32


def _write_outputs(directory: Path):
    dim = SpinDimension.from_d(9)
    precompute_cache(dim, -0.5, directory / "cache")
    rho = random_density(dim, 11)
    write_grid(directory / "grid.bin", sample_fft(
        fourier_coefficients_method_c(rho, build_parity(dim, -0.5)), 24), "either path")
    write_matrix(directory / "rho.bin", rho, "rho")


def test_files_are_identical_with_zlib_forced(fast, tmp_path, monkeypatch):
    _write_outputs(tmp_path / "fast")
    _force_zlib(monkeypatch)
    _write_outputs(tmp_path / "zlib")
    names = sorted(p.relative_to(tmp_path / "fast") for p in (tmp_path / "fast").rglob("*"))
    assert names == sorted(p.relative_to(tmp_path / "zlib") for p in (tmp_path / "zlib").rglob("*"))
    assert Path("cache/manifest.json") in names
    for name in names:
        if (tmp_path / "fast" / name).is_file():
            assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "zlib" / name).read_bytes()


def test_one_byte_flip_is_caught(either, tmp_path):
    dim = SpinDimension.from_d(6)
    cache = precompute_cache(dim, 0.0, tmp_path / "cache")
    record = cache.directory / "k_p00002.bin"
    raw = bytearray(record.read_bytes())
    raw[-30] ^= 0x01
    record.write_bytes(raw)
    with pytest.raises(CacheCorruptError, match="ell = 2"):
        fourier_coefficients_method_d(random_density(dim, 1), cache)

    grid = sample_fft(fourier_coefficients_method_c(random_density(dim, 2),
                                                    build_parity(dim, 0.0)), 12)
    path = tmp_path / "g.bin"
    write_grid(path, grid)
    raw = bytearray(path.read_bytes())
    raw[60] ^= 0x10
    path.write_bytes(raw)
    with pytest.raises(GridFileError, match="checksum"):
        read_grid(path)


@pytest.mark.parametrize("fmt, loaded", [("csv", "0"), ("bin", "1")])
def test_csv_compute_never_loads_the_library(tmp_path, fmt, loaded):
    # A CSV compute writes no checksum, so the library is never looked up;
    # the binary run shows that the probe sees a lookup when there is one.
    probe = ("import sys\n"
             "from spinphase import _checksum\n"
             "from spinphase.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(code, _checksum._implementation.cache_info().currsize)\n")
    args = ["compute", "--state", "coherent", "--dim", "8", "--n", "16", "--method", "c",
            "--format", fmt, "--out", str(tmp_path / f"grid.{fmt}")]
    env = dict(os.environ, PYTHONPATH=str(Path(spinphase.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.splitlines()[-1] == f"0 {loaded}"
