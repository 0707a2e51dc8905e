"""Binary and CSV codecs for sampled grids and user-supplied matrices.

Grid container (little endian): magic ``SWPG``, u32 version, u32 d, f64 s,
u32 n, u8 method tag, u16 description length, UTF-8 description, payload of
interleaved f64 (re, im) pairs row-major over (k, l), trailing CRC-32 of
the payload (``_checksum.crc32``, the values of ``zlib.crc32``).  A user
matrix reuses the same container with n = d and the ``matrix`` tag.
"""

from __future__ import annotations

import struct
import warnings
from pathlib import Path

import numpy as np

from ._checksum import crc32
from .angular import SpinDimension
from .parity import validate_s
from .sampling import GridWindow, PhaseSpaceGrid, _check_grid_size

__all__ = [
    "GridFileError",
    "write_grid",
    "read_grid",
    "write_grid_csv",
    "read_grid_csv",
    "write_matrix",
    "read_matrix",
    "write_matrix_csv",
    "read_matrix_csv",
    "load_matrix",
]

MAGIC = b"SWPG"
FORMAT_VERSION = 1
_HEAD = struct.Struct("<4sIIdIBH")

_METHOD_TAGS = {"c": 0x43, "d": 0x44, "b": 0x42, "direct": 0x58,
                "deriv-theta": 0x54, "deriv-phi": 0x50, "matrix": 0x4D}
_TAG_METHODS = {v: k for k, v in _METHOD_TAGS.items()}


class GridFileError(Exception):
    pass


def _write(path, d: int, s: float, n: int, method: str, description: str,
           values: np.ndarray) -> None:
    """Header, description, payload and CRC written one after another.

    The CRC is taken from the contiguous ``<c16`` array itself, so the
    payload is never copied into a file-sized ``bytes``.
    """
    try:
        tag = _METHOD_TAGS[method]
    except KeyError:
        raise GridFileError(f"unknown method tag {method!r}") from None
    desc = description.encode("utf-8")
    if len(desc) > 0xFFFF:
        raise GridFileError("description longer than 65535 bytes")
    payload = np.ascontiguousarray(values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, FORMAT_VERSION, d, s, n, tag, len(desc)))
        fh.write(desc)
        fh.write(payload)
        fh.write(struct.pack("<I", crc32(payload)))


def _unpack(raw: bytes):
    if len(raw) < _HEAD.size + 4:
        raise GridFileError("file is truncated")
    magic, version, d, s, n, tag, desc_len = _HEAD.unpack_from(raw)
    if magic != MAGIC:
        raise GridFileError("bad magic; not a grid file")
    if version != FORMAT_VERSION:
        raise GridFileError(f"unsupported format version {version}")
    body = memoryview(raw)[_HEAD.size:]  # a view: grid payloads run to megabytes
    try:
        desc = str(body[:desc_len], "utf-8")
    except UnicodeDecodeError as exc:
        raise GridFileError(f"description is not valid UTF-8: {exc}") from None
    payload = body[desc_len:-4]
    (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if crc32(payload) != crc:
        raise GridFileError("payload checksum mismatch")
    values = np.frombuffer(payload, dtype="<c16")
    method = _TAG_METHODS.get(tag)
    if method is None:
        raise GridFileError(f"unknown method tag byte 0x{tag:02x}")
    rows = d if method == "matrix" else n
    if values.size != rows * n:
        raise GridFileError("payload size does not match header")
    return d, s, n, method, desc, values.reshape(rows, n)


def _grid_dim(d: int, s: float, n: int) -> SpinDimension:
    """The header's SpinDimension; GridFileError if d < 2, n odd or < 2d, or s not in [-1, 1]."""
    try:
        dim = SpinDimension.from_d(d)
        _check_grid_size(dim, n)
        validate_s(s)
    except ValueError as exc:
        raise GridFileError(f"impossible grid header: {exc}") from None
    return dim


def write_grid(path, grid: PhaseSpaceGrid, description: str = "") -> None:
    """A grid whose header ``read_grid`` would refuse is refused before the file opens."""
    _grid_dim(grid.dim.d, grid.s, grid.n)
    _write(path, grid.dim.d, grid.s, grid.n, grid.method, description, grid.values)


def read_grid(path):
    """Returns (PhaseSpaceGrid, description).

    A header no grid can have is a GridFileError: the CRC covers only the payload.
    """
    d, s, n, method, desc, values = _unpack(Path(path).read_bytes())
    if method == "matrix":
        raise GridFileError("file holds a matrix, not a sampled grid")
    grid = PhaseSpaceGrid(dim=_grid_dim(d, s, n), s=s, n=n, values=values, method=method)
    return grid, desc


def write_matrix(path, rho: np.ndarray, description: str = "") -> None:
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise GridFileError("matrix payload must be square")
    _write(path, d, 0.0, d, "matrix", description, rho)


def read_matrix(path) -> np.ndarray:
    d, _s, _n, method, _desc, values = _unpack(Path(path).read_bytes())
    if method != "matrix":
        raise GridFileError("file holds a sampled grid, not a matrix")
    return values


def write_grid_csv(stream, grid: PhaseSpaceGrid | GridWindow) -> None:
    """Rows of ``theta,phi,re,im`` with 17 significant digits.

    Accepts a full grid or a ``window_extract`` window.  Each theta row is
    encoded as one string: the phi columns are formatted once into a row
    template, which a single ``%`` fills with the row's interleaved (re, im)
    floats.  ``%.17g`` matches ``f"{x:.17g}"`` byte for byte on float64 and
    never emits a ``%``, so the output is the per-sample format.
    """
    if isinstance(grid, GridWindow):
        thetas, phis = grid.thetas, grid.phis
    else:
        thetas, phis = grid.thetas(), grid.phis()
    tail = [f",{phi:.17g},%.17g,%.17g\n" for phi in phis]
    write = stream.write
    write("theta,phi,re,im\n")
    for theta, row in zip(thetas, grid.values):
        t = f"{theta:.17g}"
        reim = np.ascontiguousarray(row, dtype=np.complex128).view(np.float64)
        write((t + t.join(tail)) % tuple(reim.tolist()))


def _read_csv_rows(stream, first: str, what: str) -> np.ndarray:
    """The (rows, 4) numbers of a CSV whose header starts with ``first``."""
    if not stream.readline().startswith(first):
        raise GridFileError(f"missing {what} CSV header")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no rows: reported below
        data = np.loadtxt(stream, delimiter=",", ndmin=2)
    if data.size == 0:
        raise GridFileError(f"{what} CSV has no entries")
    if data.shape[1] != 4:
        raise GridFileError(f"{what} CSV rows need 4 fields, got {data.shape[1]}")
    return data


def read_grid_csv(stream):
    """Returns (thetas, phis, values) parsed from a grid CSV."""
    data = _read_csv_rows(stream, "theta", "grid")
    thetas = np.unique(data[:, 0])
    phis = np.unique(data[:, 1])
    values = (data[:, 2] + 1j * data[:, 3]).reshape(thetas.size, phis.size)
    return thetas, phis, values


def write_matrix_csv(stream, rho: np.ndarray) -> None:
    """Rows of ``row,col,re,im``; only nonzero entries may be omitted on read."""
    rho = np.asarray(rho, dtype=complex)
    stream.write("row,col,re,im\n")
    for r in range(rho.shape[0]):
        for c in range(rho.shape[1]):
            v = rho[r, c]
            stream.write(f"{r},{c},{v.real:.17g},{v.imag:.17g}\n")


def read_matrix_csv(stream, d: int | None = None) -> np.ndarray:
    """Matrix of a ``row,col,re,im`` CSV, sized by its largest index.

    With ``d``, the dimension the caller expects, an index >= d is a
    ``GridFileError`` before any allocation, so one stray row cannot ask for
    gigabytes.
    """
    data = _read_csv_rows(stream, "row", "matrix")
    index = data[:, :2]
    if not np.all(np.isfinite(index) & (index >= 0) & (index == np.floor(index))):
        raise GridFileError("matrix CSV row and col must be non-negative integers")
    if d is not None and index.max() >= d:
        raise GridFileError(f"matrix CSV index {index.max():g} does not fit "
                            f"a {d} x {d} matrix")
    size = int(index.max()) + 1
    rho = np.zeros((size, size), dtype=complex)
    rho[tuple(index.astype(int).T)] = data[:, 2] + 1j * data[:, 3]
    return rho


def load_matrix(path, d: int | None = None) -> np.ndarray:
    """Dispatch on extension: .csv uses the text codec, anything else binary.

    ``d`` is passed to ``read_matrix_csv``.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, "r") as fh:
            return read_matrix_csv(fh, d)
    return read_matrix(path)
