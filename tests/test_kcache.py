import json
import time
import tracemalloc

import numpy as np
import pytest

from spinphase import kcache
from spinphase.angular import SpinDimension, jy_eigenbasis
from spinphase.fourier import fourier_coefficients_method_c
from spinphase.kcache import (CacheCorruptError, CacheIncompleteError,
                              CacheMismatchError, fourier_coefficients_method_d,
                              open_cache, precompute_cache)
from spinphase.parity import build_parity
from spinphase.states import random_density


@pytest.fixture
def cache10(tmp_path):
    dim = SpinDimension.from_d(10)
    return precompute_cache(dim, 0.0, tmp_path / "c10")


def test_payload_accounting(cache10, tmp_path):
    assert cache10.k_payload_bytes() == (2 * 10 - 1) * 10 * 10 * 16 == 30400
    assert cache10.companion_payload_bytes() == 16 * 10 * 11 == 1760
    cache50 = precompute_cache(SpinDimension.from_d(50), 0.0, tmp_path / "c50")
    assert cache50.k_payload_bytes() == (2 * 50 - 1) * 50 * 50 * 16 == 3_960_000


def test_companion_roundtrip(cache10):
    dim = SpinDimension.from_d(10)
    u, ms_diag, eigenvalues = cache10.read_companion()
    basis = jy_eigenbasis(dim)
    assert np.array_equal(u, basis.vectors)
    assert np.array_equal(ms_diag, build_parity(dim, 0.0).diag)
    assert np.array_equal(eigenvalues, basis.eigenvalues)


def test_idempotent_verify_leaves_files_alone(cache10):
    before = {p.name: p.stat().st_mtime_ns for p in cache10.directory.iterdir()}
    again = precompute_cache(SpinDimension.from_d(10), 0.0, cache10.directory)
    after = {p.name: p.stat().st_mtime_ns for p in again.directory.iterdir()}
    assert before == after


def test_selective_rewrite_of_corrupt_record(cache10):
    victim = cache10.directory / "k_p00003.bin"
    raw = bytearray(victim.read_bytes())
    raw[100] ^= 0xFF
    victim.write_bytes(raw)
    untouched = {p.name: p.stat().st_mtime_ns
                 for p in cache10.directory.iterdir()
                 if p.name not in (victim.name, "manifest.json")}
    precompute_cache(SpinDimension.from_d(10), 0.0, cache10.directory)
    now = {p.name: p.stat().st_mtime_ns
           for p in cache10.directory.iterdir()
           if p.name not in (victim.name, "manifest.json")}
    assert untouched == now
    assert cache10.read_k(3) is not None  # repaired


@pytest.mark.parametrize("s", [-1.0, 0.0])
def test_method_d_matches_method_c(tmp_path, s):
    dim = SpinDimension.from_d(20)
    rho = random_density(dim, 99)
    parity = build_parity(dim, s)
    cache = precompute_cache(dim, s, tmp_path / f"c20_{s}")
    table_c = fourier_coefficients_method_c(rho, parity)
    table_d = fourier_coefficients_method_d(rho, cache)
    assert np.abs(table_c.coeffs - table_d.coeffs).max() < 1e-12


def test_record_order_does_not_matter(cache10):
    dim = SpinDimension.from_d(10)
    rho = random_density(dim, 5)
    reference = fourier_coefficients_method_d(rho, cache10)
    manifest = json.loads(cache10.manifest_path.read_text())
    rng = np.random.default_rng(0)
    order = rng.permutation(len(manifest["records"]))
    manifest["records"] = [manifest["records"][i] for i in order]
    cache10.manifest_path.write_text(json.dumps(manifest))
    shuffled = fourier_coefficients_method_d(rho, cache10)
    assert np.array_equal(reference.coeffs, shuffled.coeffs)


def test_corrupt_record_fails_loudly(cache10):
    victim = cache10.directory / "k_m00004.bin"
    raw = bytearray(victim.read_bytes())
    raw[-30] ^= 0x01  # one payload byte
    victim.write_bytes(raw)
    rho = random_density(SpinDimension.from_d(10), 1)
    with pytest.raises(CacheCorruptError, match="-4"):
        fourier_coefficients_method_d(rho, cache10)


def test_missing_record_is_incomplete(cache10):
    (cache10.directory / "k_p00002.bin").unlink()
    rho = random_density(SpinDimension.from_d(10), 1)
    with pytest.raises(CacheIncompleteError):
        fourier_coefficients_method_d(rho, cache10)


def test_missing_manifest_is_incomplete(tmp_path):
    with pytest.raises(CacheIncompleteError, match="manifest"):
        open_cache(tmp_path, 10, 0.0)


def test_truncated_manifest_is_incomplete_and_rebuilt(cache10):
    path = cache10.manifest_path
    path.write_text(path.read_text()[:40])
    with pytest.raises(CacheIncompleteError, match="manifest"):
        open_cache(cache10.directory, 10, 0.0)
    rebuilt = precompute_cache(SpinDimension.from_d(10), 0.0, cache10.directory)
    assert rebuilt.last_action == "written"
    assert open_cache(cache10.directory, 10, 0.0).manifest()["complete"]
    assert [p.name for p in cache10.directory.iterdir() if p.suffix == ".tmp"] == []


def test_mismatched_parameters_are_rejected(cache10):
    with pytest.raises(CacheMismatchError):
        open_cache(cache10.directory, 10, -1.0)
    with pytest.raises(CacheMismatchError):
        open_cache(cache10.directory, 12, 0.0)
    rho = random_density(SpinDimension.from_d(12), 1)
    with pytest.raises((CacheMismatchError, ValueError)):
        fourier_coefficients_method_d(rho, cache10)


def test_precompute_refuses_to_clobber_other_cache(cache10):
    with pytest.raises(CacheMismatchError):
        precompute_cache(SpinDimension.from_d(10), -1.0, cache10.directory)


def test_cache_bytes_are_reproducible(tmp_path):
    # The eigenvector phase convention exists to pin cache bytes exactly.
    dim = SpinDimension.from_d(11)
    a = precompute_cache(dim, -0.5, tmp_path / "a")
    b = precompute_cache(dim, -0.5, tmp_path / "b")
    for ell in range(-dim.two_j, dim.two_j + 1):
        name = f"k_{'m' if ell < 0 else 'p'}{abs(ell):05d}.bin"
        assert (a.directory / name).read_bytes() == (b.directory / name).read_bytes()
    assert ((a.directory / "companion.bin").read_bytes()
            == (b.directory / "companion.bin").read_bytes())


def test_parallel_precompute_matches_serial(tmp_path):
    dim = SpinDimension.from_d(9)
    serial = precompute_cache(dim, 0.0, tmp_path / "serial", workers=1)
    threaded = precompute_cache(dim, 0.0, tmp_path / "threaded", workers=4)
    for ell in range(-dim.two_j, dim.two_j + 1):
        assert np.array_equal(serial.read_k(ell), threaded.read_k(ell))


def test_parallel_precompute_holds_few_records(tmp_path, monkeypatch):
    # A slow disk must not let finished records pile up in memory: each
    # worker builds and writes one record at a time.
    write = kcache._write_record

    def slow_write(*args):
        time.sleep(0.002)
        return write(*args)

    monkeypatch.setattr(kcache, "_write_record", slow_write)
    dim = SpinDimension.from_d(60)
    record_bytes = 60 * 60 * 16
    jy_eigenbasis(dim)  # the memoized basis stays out of the peak
    tracemalloc.start()
    try:
        precompute_cache(dim, 0.0, tmp_path / "c", workers=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * record_bytes
