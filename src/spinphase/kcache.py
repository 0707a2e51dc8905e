"""On-disk store of precomputed K matrices.

Layout: one directory per (d, s) pair holding ``manifest.json`` plus one
binary record per K matrix and one companion record with the J_y
eigenvector matrix, the parity diagonal, and the J_y eigenvalues.

Record format (little endian): magic ``SWKL``, u32 format version, u32 d,
i32 ell (``COMPANION_ELL`` sentinel for the companion), f64 s, payload of
interleaved f64 (re, im) pairs in row-major order, trailing CRC-32 of the
payload bytes.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .angular import EigenBasis, SpinDimension, jy_eigenbasis
from .fourier import FourierTable, _fill_table, _k_matrix
from .parity import ParityOperator, build_parity, transform_parity
from .states import as_density_matrix

__all__ = [
    "CacheError",
    "CacheIncompleteError",
    "CacheCorruptError",
    "CacheMismatchError",
    "KCache",
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


def _record_name(ell: int) -> str:
    if ell == COMPANION_ELL:
        return "companion.bin"
    return f"k_{'m' if ell < 0 else 'p'}{abs(ell):05d}.bin"


def _write_record(path: Path, d: int, s: float, ell: int, payload) -> int:
    """``payload`` is any contiguous buffer: bytes or a ``<c16`` array."""
    crc = zlib.crc32(payload)
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


def _read_record(path: Path, d: int, s: float, ell: int) -> np.ndarray:
    """Payload of one verified record as a flat complex array."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise CacheIncompleteError(f"missing cache record {path.name}") from None
    if len(raw) < _HEADER.size + 4:
        raise CacheCorruptError(f"record {path.name} is truncated", ell=ell)
    magic, version, rec_d, rec_ell, rec_s = _HEADER.unpack_from(raw)
    if magic != MAGIC or version != FORMAT_VERSION:
        raise CacheCorruptError(f"record {path.name} has a bad header", ell=ell)
    if rec_d != d or rec_ell != ell or rec_s != s:
        raise CacheMismatchError(
            f"record {path.name} was written for d={rec_d}, s={rec_s}, ell={rec_ell}")
    payload = memoryview(raw)[_HEADER.size:-4]  # a view: records are hundreds of kB
    (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(payload) != crc:
        label = "companion" if ell == COMPANION_ELL else f"ell = {ell}"
        raise CacheCorruptError(f"checksum mismatch in cache record for {label}", ell=ell)
    return np.frombuffer(payload, dtype="<c16")


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
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            raise CacheIncompleteError(
                f"no manifest in {self.directory}; cache is incomplete or absent") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CacheIncompleteError(
                f"manifest in {self.directory} is unreadable ({exc}); "
                "cache is incomplete") from None
        if not manifest.get("complete", False):
            raise CacheIncompleteError(f"cache in {self.directory} is flagged incomplete")
        if manifest["d"] != self.d or float(manifest["s"]) != self.s:
            raise CacheMismatchError(
                f"cache in {self.directory} holds d={manifest['d']}, s={manifest['s']}, "
                f"requested d={self.d}, s={self.s}")
        return manifest

    def k_payload_bytes(self) -> int:
        manifest = self.manifest()
        return sum(rec["payload_bytes"] for rec in manifest["records"]
                   if rec["ell"] != COMPANION_ELL)

    def companion_payload_bytes(self) -> int:
        manifest = self.manifest()
        return sum(rec["payload_bytes"] for rec in manifest["records"]
                   if rec["ell"] == COMPANION_ELL)

    def read_k(self, ell: int) -> np.ndarray:
        flat = _read_record(self.directory / _record_name(ell), self.d, self.s, ell)
        if flat.size != self.d * self.d:
            raise CacheCorruptError(f"record for ell = {ell} has wrong size", ell=ell)
        return flat.reshape(self.d, self.d)

    def read_companion(self):
        """(U, parity diagonal, J_y eigenvalues) from the companion record."""
        d = self.d
        flat = _read_record(self.directory / _record_name(COMPANION_ELL),
                            d, self.s, COMPANION_ELL)
        if flat.size != (d * d + d):
            raise CacheCorruptError("companion record has wrong size", ell=COMPANION_ELL)
        u = flat[: d * d].reshape(d, d)
        reals = flat[d * d:]  # d complex slots carry 2d packed reals
        packed = reals.view(np.float64)
        return u, packed[:d].copy(), packed[d:].copy()


def _companion_payload(basis: EigenBasis, parity: ParityOperator) -> bytes:
    u_bytes = np.ascontiguousarray(basis.vectors, dtype="<c16").tobytes()
    reals = np.concatenate([parity.diag, basis.eigenvalues]).astype("<f8")
    return u_bytes + reals.tobytes()


def precompute_cache(dim: SpinDimension, s: float, directory,
                     force: bool = False, workers: int = 1) -> KCache:
    """Write (or verify) every K record plus the companion record.

    Idempotent: an existing complete cache is checksum-verified and only
    mismatching records are rewritten.  The manifest is written last so a
    partial run never masquerades as a complete cache.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    s = float(s)
    cache = KCache(directory=directory, d=dim.d, s=s)
    two_j = dim.two_j
    all_ells = list(range(-two_j, two_j + 1)) + [COMPANION_ELL]

    stale: set[int] | None = None  # None means rebuild everything
    kept: dict[int, dict] = {}
    if not force:
        try:
            manifest = cache.manifest()
            stale = set()
            for rec in manifest["records"]:
                ell = rec["ell"]
                try:
                    _read_record(directory / _record_name(ell), dim.d, s, ell)
                    kept[ell] = rec
                except (CacheCorruptError, CacheIncompleteError):
                    stale.add(ell)
            stale.update(set(all_ells) - set(kept) - stale)
            if not stale:
                cache.last_action = "verified"
                return cache
        except CacheIncompleteError:
            stale = None

    basis = jy_eigenbasis(dim)
    parity = build_parity(dim, s)
    mtilde = transform_parity(parity, basis).matrix
    u = basis.vectors
    todo = all_ells if stale is None else sorted(stale)

    # Invalidate before touching records; the manifest is rewritten last, so
    # an interrupted run leaves a cache that reads as incomplete.
    if cache.manifest_path.exists():
        cache.manifest_path.unlink()

    def write_one(ell):
        if ell == COMPANION_ELL:
            payload = _companion_payload(basis, parity)
        else:
            payload = np.ascontiguousarray(_k_matrix(u, mtilde, ell), dtype="<c16")
        path = directory / _record_name(ell)
        try:
            crc = _write_record(path, dim.d, s, ell, payload)
        except OSError as exc:
            raise CacheError(f"failed to write record for ell = {ell}: {exc}") from exc
        return {"ell": ell, "file": path.name,
                "crc32": crc, "payload_bytes": memoryview(payload).nbytes}

    # Each task builds and writes one record, so a worker holds one at a time.
    if workers == 1:
        written = map(write_one, todo)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            written = list(pool.map(write_one, todo))
    kept.update((rec["ell"], rec) for rec in written)

    records = [kept[ell] for ell in all_ells]
    manifest = {"format_version": FORMAT_VERSION, "d": dim.d, "s": repr(s),
                "records": records, "complete": True}
    _write_manifest(cache.manifest_path, manifest)
    cache.last_action = "written" if stale is None or force else "repaired"
    return cache


def open_cache(directory, d: int, s: float) -> KCache:
    cache = KCache(directory=Path(directory), d=int(d), s=float(s))
    cache.manifest()
    return cache


def fourier_coefficients_method_d(rho: np.ndarray, cache: KCache) -> FourierTable:
    """Fourier coefficients from precomputed K records, streamed one at a time.

    O(d^3) total work and O(d^2) memory; every record is checksum-verified
    as it is read, so a corrupted cache fails loudly before any output.
    """
    dim = cache.dim
    rho = as_density_matrix(rho, dim)
    manifest = cache.manifest()
    two_j = dim.two_j
    expected = set(range(-two_j, two_j + 1))
    listed = {rec["ell"] for rec in manifest["records"] if rec["ell"] != COMPANION_ELL}
    if listed != expected:
        raise CacheIncompleteError(
            f"cache lists {len(listed)} K records, expected {len(expected)}")
    return _fill_table(rho, dim, cache.s, cache.read_k)
