"""On-disk store of precomputed K matrices.

Layout: one directory per (d, s) pair holding ``manifest.json`` plus one
binary record per K matrix and one companion record with the J_y
eigenvector matrix, the parity diagonal, and the J_y eigenvalues.

Record format (little endian): magic ``SWKL``, u32 format version, u32 d,
i32 ell (``COMPANION_ELL`` sentinel for the companion), f64 s, payload of
interleaved f64 (re, im) pairs in row-major order, trailing CRC-32 of the
payload bytes (``_checksum.crc32``, the values of ``zlib.crc32``).

K_{-ell} is K_ell^H, so ``precompute_cache`` builds one product per +-ell
pair and writes record -ell as the exact conjugate transpose of record ell.
Method d reads every record whole, through one unbuffered ``FileIO`` per
record, and checks its CRC on every call.  It decides whether rho is
exactly Hermitian itself and fills its rows through ``fourier._fill_table``,
the loop method c uses.  When the process may use two CPUs, that loop
splits the records between the calling thread (even ell) and one helper
thread (odd ell); each reads, verifies and accumulates its own, and the
error of the smallest failing ell is raised, as on one thread.  A traced
run therefore sums read and accumulation times over both threads, and they
can exceed the time of the method-d call.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from io import FileIO
from pathlib import Path

import numpy as np

from ._checksum import crc32
from .angular import EigenBasis, SpinDimension, jy_eigenbasis
from .fourier import FourierTable, _fill_table, _k_matrix, _RowSums
from .parity import ParityOperator, build_parity, transform_parity, validate_s
from .states import as_density_matrix

__all__ = [
    "CacheError",
    "CacheIncompleteError",
    "CacheCorruptError",
    "CacheMismatchError",
    "KCache",
    "cache_directory",
    "open_cache",
    "precompute_cache",
    "fourier_coefficients_method_d",
]

MAGIC = b"SWKL"
FORMAT_VERSION = 1
COMPANION_ELL = -(2 ** 31)
_HEADER = struct.Struct("<4sIIid")


class CacheError(Exception):
    """Base class for cache failures."""


class CacheIncompleteError(CacheError):
    pass


class CacheCorruptError(CacheError):
    def __init__(self, message, ell=None):
        super().__init__(message)
        self.ell = ell


class CacheMismatchError(CacheError):
    pass


def cache_directory(root, d: int, s: float) -> Path:
    """Per-(d, s) cache directory inside a cache root."""
    return Path(root) / f"d{int(d):04d}_s{float(s)!r}"


def _complete_shape(manifest) -> bool:
    """A JSON object flagged complete, with integer d, float-parsable s and record objects."""
    try:
        float(manifest["s"])
        return (manifest["complete"] is True and type(manifest["d"]) is int
                and all(type(rec["ell"]) is int and type(rec["payload_bytes"]) is int
                        for rec in manifest["records"]))
    except (KeyError, TypeError, ValueError, OverflowError):
        return False


def _record_name(ell: int) -> str:
    if ell == COMPANION_ELL:
        return "companion.bin"
    return f"k_{'m' if ell < 0 else 'p'}{abs(ell):05d}.bin"


def _write_record(path: Path, d: int, s: float, ell: int, payload) -> int:
    """``payload`` is any contiguous buffer: bytes or a ``<c16`` array."""
    crc = crc32(payload)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, d, ell, s))
        fh.write(payload)
        fh.write(struct.pack("<I", crc))
    return crc


def _write_manifest(path: Path, manifest: dict) -> None:
    """Write via a temp file and ``os.replace`` so no reader sees a partial manifest."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(manifest, indent=1))
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise CacheError(f"failed to write manifest {path}: {exc}") from exc


def _read_record(path: str, d: int, s: float, ell: int) -> np.ndarray:
    """Payload of one verified record of the right size as a flat complex array.

    ``path`` is a string.  One unbuffered ``FileIO`` reads the whole record
    into a writable array; the CRC and the returned payload are views of it.
    """
    name = os.path.basename(path)
    try:
        with FileIO(path) as fh:
            raw = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
            size = fh.readinto(raw)
    except FileNotFoundError:
        raise CacheIncompleteError(f"missing cache record {name}") from None
    if size < _HEADER.size + 4:
        raise CacheCorruptError(f"record {name} is truncated", ell=ell)
    magic, version, rec_d, rec_ell, rec_s = _HEADER.unpack_from(raw)
    if magic != MAGIC or version != FORMAT_VERSION:
        raise CacheCorruptError(f"record {name} has a bad header", ell=ell)
    if rec_d != d or rec_ell != ell or rec_s != s:
        raise CacheMismatchError(
            f"record {name} was written for d={rec_d}, s={rec_s}, ell={rec_ell}")
    payload = raw[_HEADER.size:size - 4]
    (crc,) = struct.unpack_from("<I", raw, size - 4)
    companion = ell == COMPANION_ELL
    if crc32(payload) != crc:
        label = "companion" if companion else f"ell = {ell}"
        raise CacheCorruptError(f"checksum mismatch in cache record for {label}", ell=ell)
    if payload.nbytes != 16 * (d * d + d if companion else d * d):
        label = "companion record" if companion else f"record for ell = {ell}"
        raise CacheCorruptError(f"{label} has wrong size", ell=ell)
    return payload.view("<c16")


@dataclass
class KCache:
    """Handle to one cache directory and its parsed manifest."""

    directory: Path
    d: int
    s: float
    last_action: str = "opened"

    @property
    def dim(self) -> SpinDimension:
        return SpinDimension.from_d(self.d)

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    def manifest(self) -> dict:
        """Manifest of a complete cache for this (d, s) that lists each record once."""
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            raise CacheIncompleteError(
                f"no manifest in {self.directory}; cache is incomplete or absent") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CacheIncompleteError(
                f"manifest in {self.directory} is unreadable ({exc}); "
                "cache is incomplete") from None
        if not _complete_shape(manifest):
            raise CacheIncompleteError(
                f"manifest in {self.directory} does not describe a complete cache")
        if manifest["d"] != self.d or float(manifest["s"]) != self.s:
            raise CacheMismatchError(
                f"cache in {self.directory} holds d={manifest['d']}, s={manifest['s']}, "
                f"requested d={self.d}, s={self.s}")
        expected = [COMPANION_ELL, *range(1 - self.d, self.d)]  # ascending: the sentinel is least
        if sorted(rec["ell"] for rec in manifest["records"]) != expected:
            raise CacheIncompleteError(
                f"manifest in {self.directory} does not list the {2 * self.d} records")
        return manifest

    def k_payload_bytes(self) -> int:
        return sum(rec["payload_bytes"] for rec in self.manifest()["records"]
                   if rec["ell"] != COMPANION_ELL)

    def companion_payload_bytes(self) -> int:
        return sum(rec["payload_bytes"] for rec in self.manifest()["records"]
                   if rec["ell"] == COMPANION_ELL)

    def read_k(self, ell: int) -> np.ndarray:
        flat = _read_record(os.path.join(self.directory, _record_name(ell)),
                            self.d, self.s, ell)
        return flat.reshape(self.d, self.d)

    def read_companion(self):
        """(U, parity diagonal, J_y eigenvalues) from the companion record."""
        d = self.d
        flat = _read_record(os.path.join(self.directory, _record_name(COMPANION_ELL)),
                            d, self.s, COMPANION_ELL)
        u = flat[: d * d].reshape(d, d)
        reals = flat[d * d:]  # d complex slots carry 2d packed reals
        packed = reals.view(np.float64)
        return u, packed[:d].copy(), packed[d:].copy()


def _companion_payload(basis: EigenBasis, parity: ParityOperator) -> bytes:
    u_bytes = np.ascontiguousarray(basis.vectors, dtype="<c16").tobytes()
    reals = np.concatenate([parity.diag, basis.eigenvalues]).astype("<f8")
    return u_bytes + reals.tobytes()


def precompute_cache(dim: SpinDimension, s: float, directory) -> KCache:
    """Write (or verify) every K record plus the companion record.

    Idempotent: an existing complete cache is checksum-verified and only
    mismatching records are rewritten.  The manifest is written last so a
    partial run never masquerades as a complete cache.
    """
    s = validate_s(s)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cache = KCache(directory=directory, d=dim.d, s=s)
    two_j = dim.two_j
    all_ells = list(range(-two_j, two_j + 1)) + [COMPANION_ELL]

    stale: set[int] | None = None  # None means rebuild everything
    kept: dict[int, dict] = {}
    try:
        manifest = cache.manifest()
        stale = set()
        for rec in manifest["records"]:
            ell = rec["ell"]
            try:
                _read_record(os.path.join(directory, _record_name(ell)), dim.d, s, ell)
                kept[ell] = rec
            except (CacheCorruptError, CacheIncompleteError, CacheMismatchError):
                stale.add(ell)  # the manifest matched: a mismatch is a stray record
        if not stale:
            cache.last_action = "verified"
            return cache
    except CacheIncompleteError:
        stale = None

    basis = jy_eigenbasis(dim)
    parity = build_parity(dim, s)
    mtilde = transform_parity(parity, basis)
    u = basis.vectors

    # Invalidate before touching records; the manifest is rewritten last, so
    # an interrupted run leaves a cache that reads as incomplete.
    if cache.manifest_path.exists():
        cache.manifest_path.unlink()

    def write_one(ell, payload):
        path = directory / _record_name(ell)
        try:
            crc = _write_record(path, dim.d, s, ell, payload)
        except OSError as exc:
            raise CacheError(f"failed to write record for ell = {ell}: {exc}") from exc
        kept[ell] = {"ell": ell, "file": path.name,
                     "crc32": crc, "payload_bytes": memoryview(payload).nbytes}

    # One product per |ell| gives K_ell and, as its conjugate transpose,
    # K_-ell, so at most two records exist at a time.
    due = set(all_ells) if stale is None else stale
    if COMPANION_ELL in due:
        write_one(COMPANION_ELL, _companion_payload(basis, parity))
    for ell in range(two_j + 1):
        if ell in due or -ell in due:
            k = np.ascontiguousarray(_k_matrix(u, mtilde, ell), dtype="<c16")
            if ell in due:
                write_one(ell, k)
            if ell > 0 and -ell in due:
                write_one(-ell, np.conj(k.T, order="C"))

    records = [kept[ell] for ell in all_ells]
    manifest = {"format_version": FORMAT_VERSION, "d": dim.d, "s": repr(s),
                "records": records, "complete": True}
    _write_manifest(cache.manifest_path, manifest)
    cache.last_action = "written" if stale is None else "repaired"
    return cache


def open_cache(directory, d: int, s: float) -> KCache:
    cache = KCache(directory=Path(directory), d=int(d), s=float(s))
    cache.manifest()
    return cache


def fourier_coefficients_method_d(rho: np.ndarray, cache: KCache) -> FourierTable:
    """Fourier coefficients from precomputed K records, streamed one at a time.

    O(d^3) total work and O(d^2) memory; every record is checksum-verified
    as it is read, so a corrupted cache fails loudly before any output.
    For a Hermitian rho the rows ell < 0 are mirrored, not accumulated, but
    their records are still read and verified.
    """
    dim = cache.dim
    rho = as_density_matrix(rho, dim)
    cache.manifest()  # lists every record, or raises
    hermitian = np.array_equal(rho, rho.conj().T)
    coeffs = _fill_table(_RowSums(rho), hermitian, range(-dim.two_j, dim.two_j + 1),
                         cache.read_k, on_mirrored=cache.read_k, two_threads=True)
    return FourierTable(dim=dim, s=cache.s, coeffs=coeffs)
