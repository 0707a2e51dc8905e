import json
import struct
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from spinphase import fourier, kcache
from spinphase.angular import SpinDimension, jy_eigenbasis
from spinphase.cli import main
from spinphase.fourier import fourier_coefficients_method_c
from spinphase.kcache import (CacheCorruptError, CacheIncompleteError,
                              CacheMismatchError, fourier_coefficients_method_d,
                              open_cache, precompute_cache)
from spinphase.parity import build_parity, transform_parity
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


def _serial_error(cache, rho):
    """The error that method d's loop raises on one thread."""
    with pytest.raises(kcache.CacheError) as info:
        fourier._fill_table(fourier._RowSums(rho), np.array_equal(rho, rho.conj().T),
                            range(1 - cache.d, cache.d), cache.read_k, on_mirrored=cache.read_k)
    return info.value


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("ells", [(-3, -2), (-6, -1), (2, 7), (-5, 4)])
def test_corrupt_records_on_both_threads_raise_the_serial_error(cache10, monkeypatch,
                                                               ells, hermitian):
    # Odd ell are read on the helper thread and even ell on the caller's.
    monkeypatch.setattr(fourier, "_usable_cpus", lambda: 2)
    for ell in ells:
        victim = cache10.directory / kcache._record_name(ell)
        raw = bytearray(victim.read_bytes())
        raw[-30] ^= 0x01
        victim.write_bytes(raw)
    dim = SpinDimension.from_d(10)
    rho = random_density(dim, 1)
    if not hermitian:
        rho[0, 1] += 1e-3
    expected = _serial_error(cache10, rho)
    assert type(expected) is CacheCorruptError and expected.ell == min(ells)
    threads = threading.active_count()
    with pytest.raises(CacheCorruptError, match=f"ell = {min(ells)}$") as info:
        fourier_coefficients_method_d(rho, cache10)
    assert info.value.ell == min(ells)
    assert threading.active_count() == threads


@pytest.mark.parametrize("ells", [(-3, -2), (-6, -1), (2, 7)])
def test_missing_records_on_both_threads_raise_the_serial_error(cache10, monkeypatch, ells):
    monkeypatch.setattr(fourier, "_usable_cpus", lambda: 2)
    for ell in ells:
        (cache10.directory / kcache._record_name(ell)).unlink()
    rho = random_density(SpinDimension.from_d(10), 1)
    expected = _serial_error(cache10, rho)
    first = kcache._record_name(min(ells))
    assert type(expected) is CacheIncompleteError and str(expected).endswith(first)
    threads = threading.active_count()
    with pytest.raises(CacheIncompleteError, match=f"{first}$"):
        fourier_coefficients_method_d(rho, cache10)
    assert threading.active_count() == threads


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


def test_precompute_holds_few_records(tmp_path, monkeypatch):
    # A slow disk must not let finished records pile up in memory: the
    # loop builds one K product and writes its +-ell records before the next.
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
        precompute_cache(dim, 0.0, tmp_path / "c")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * record_bytes


def _count_k_products(monkeypatch):
    calls = []
    build = kcache._k_matrix

    def counted(u, mtilde, ell):
        calls.append(ell)
        return build(u, mtilde, ell)

    monkeypatch.setattr(kcache, "_k_matrix", counted)
    return calls


def _mtimes(directory, skip=()):
    return {p.name: p.stat().st_mtime_ns for p in directory.iterdir()
            if p.name not in (*skip, "manifest.json")}


@pytest.mark.parametrize("d", [9, 12])
def test_negative_records_are_exact_conjugate_transposes(tmp_path, d):
    dim = SpinDimension.from_d(d)
    cache = precompute_cache(dim, 0.0, tmp_path / "c")
    for ell in range(1, dim.two_j + 1):
        mirrored = np.ascontiguousarray(cache.read_k(ell).conj().T)
        assert cache.read_k(-ell).tobytes() == mirrored.tobytes()


def test_full_build_makes_one_product_per_pair(tmp_path, monkeypatch):
    calls = _count_k_products(monkeypatch)
    dim = SpinDimension.from_d(10)
    precompute_cache(dim, 0.0, tmp_path / "c")
    assert sorted(calls) == list(range(dim.two_j + 1))  # 2J+1 products, not 4J+1


@pytest.mark.parametrize("victim", ["k_m00003.bin", "k_p00003.bin"])
def test_repair_rebuilds_one_product_and_one_record(cache10, tmp_path, monkeypatch, victim):
    dim = SpinDimension.from_d(10)
    fresh = precompute_cache(dim, 0.0, tmp_path / "fresh")
    path = cache10.directory / victim
    raw = bytearray(path.read_bytes())
    raw[100] ^= 0xFF
    path.write_bytes(raw)
    untouched = _mtimes(cache10.directory, skip=[victim])
    calls = _count_k_products(monkeypatch)
    repaired = precompute_cache(dim, 0.0, cache10.directory)
    assert repaired.last_action == "repaired"
    assert calls == [3]
    assert path.read_bytes() == (fresh.directory / victim).read_bytes()
    assert _mtimes(cache10.directory, skip=[victim]) == untouched


def _resized_record(cache, drop):
    """Record ell = 3 with a valid header and checksum but ``drop`` payload bytes short."""
    raw = (cache.directory / "k_p00003.bin").read_bytes()
    payload = raw[kcache._HEADER.size:-4 - drop]
    return raw[:kcache._HEADER.size] + payload + struct.pack("<I", zlib.crc32(payload))


# Records whose header, checksum or size a reader rejects, but whose manifest matches.
STRAY_RECORDS = {
    "record-of-ell-4": lambda cache: (cache.directory / "k_p00004.bin").read_bytes(),
    "one-entry-short": lambda cache: _resized_record(cache, 16),
    "half-an-entry-short": lambda cache: _resized_record(cache, 8),
}


@pytest.mark.parametrize("name", sorted(STRAY_RECORDS))
def test_stray_record_is_repaired(cache10, tmp_path, name):
    dim = SpinDimension.from_d(10)
    victim = cache10.directory / "k_p00003.bin"
    victim.write_bytes(STRAY_RECORDS[name](cache10))
    rho = random_density(dim, 4)
    with pytest.raises((CacheMismatchError, CacheCorruptError)):
        fourier_coefficients_method_d(rho, cache10)
    untouched = _mtimes(cache10.directory, skip=[victim.name])
    repaired = precompute_cache(dim, 0.0, cache10.directory)
    assert repaired.last_action == "repaired"
    assert _mtimes(cache10.directory, skip=[victim.name]) == untouched
    fresh = precompute_cache(dim, 0.0, tmp_path / "fresh")
    assert victim.read_bytes() == (fresh.directory / victim.name).read_bytes()
    table_c = fourier_coefficients_method_c(rho, build_parity(dim, 0.0))
    table_d = fourier_coefficients_method_d(rho, repaired)
    assert np.abs(table_d.coeffs - table_c.coeffs).max() < 1e-12


def test_cache_with_one_product_per_record_stays_valid(cache10):
    # Earlier versions built every record, ell < 0 included, from its own
    # product, which differs from K_ell^H by rounding only.
    dim = SpinDimension.from_d(10)
    parity = build_parity(dim, 0.0)
    basis = jy_eigenbasis(dim)
    mtilde = transform_parity(parity, basis)
    manifest = json.loads(cache10.manifest_path.read_text())
    changed = 0
    for rec in manifest["records"]:
        ell = rec["ell"]
        if ell == kcache.COMPANION_ELL or ell >= 0:
            continue
        path = cache10.directory / rec["file"]
        paired = path.read_bytes()
        rec["crc32"] = kcache._write_record(path, dim.d, 0.0, ell,
                                            kcache._k_matrix(basis.vectors, mtilde, ell))
        changed += path.read_bytes() != paired
    assert changed > 0  # the old records really differ in their bytes
    cache10.manifest_path.write_text(json.dumps(manifest, indent=1))
    before = _mtimes(cache10.directory)
    again = precompute_cache(dim, 0.0, cache10.directory)
    assert again.last_action == "verified"
    assert _mtimes(cache10.directory) == before
    rng = np.random.default_rng(3)
    a, b = (rng.standard_normal(dim.d) + 1j * rng.standard_normal(dim.d) for _ in range(2))
    rho = np.outer(a, b.conj())  # not Hermitian: every ell < 0 record is accumulated
    table_d = fourier_coefficients_method_d(rho, again)
    table_c = fourier_coefficients_method_c(rho, parity)
    assert np.abs(table_d.coeffs - table_c.coeffs).max() < 1e-12


def _drop_first_ell(manifest):
    del manifest["records"][0]["ell"]
    return manifest


# Manifests that parse as JSON but do not describe a complete cache.
WRONG_SHAPES = {
    "flag-only": lambda manifest: {"complete": True},
    "list": lambda manifest: [],
    "record-without-ell": _drop_first_ell,
    "s-not-a-number": lambda manifest: dict(manifest, s="abc"),
    "complete-not-true": lambda manifest: dict(manifest, complete=1),
    "record-missing": lambda manifest: dict(manifest, records=manifest["records"][1:]),
    "record-twice": lambda manifest: dict(
        manifest, records=manifest["records"][1:] + manifest["records"][1:2]),
}


def _reshape_manifest(cache, name):
    manifest = json.loads(cache.manifest_path.read_text())
    cache.manifest_path.write_text(json.dumps(WRONG_SHAPES[name](manifest)))


@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_wrong_shape_manifest_is_incomplete(cache10, name):
    _reshape_manifest(cache10, name)
    with pytest.raises(CacheIncompleteError):
        open_cache(cache10.directory, 10, 0.0)
    with pytest.raises(CacheIncompleteError):
        fourier_coefficients_method_d(random_density(SpinDimension.from_d(10), 1), cache10)


@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_wrong_shape_manifest_is_rebuilt(cache10, name):
    reference = (cache10.directory / "k_p00003.bin").read_bytes()
    _reshape_manifest(cache10, name)
    rebuilt = precompute_cache(SpinDimension.from_d(10), 0.0, cache10.directory)
    assert rebuilt.last_action == "written"
    assert open_cache(cache10.directory, 10, 0.0).manifest()["complete"] is True
    assert (cache10.directory / "k_p00003.bin").read_bytes() == reference


@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_wrong_shape_manifest_is_a_cli_error(tmp_path, capsys, name):
    cache = precompute_cache(SpinDimension.from_d(6), 0.0, tmp_path / "d0006_s0.0")
    _reshape_manifest(cache, name)
    assert main(["compute", "--state", "ghz", "--dim", "6", "--n", "16",
                 "--method", "d", "--cache", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot use cached method: ")
