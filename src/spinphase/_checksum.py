"""CRC-32 of a contiguous buffer, the values of ``zlib.crc32``.

The cache records and grid files of ``kcache`` and ``gridfile`` carry this
checksum, and method d verifies every record it reads, so its speed sets
much of a cached table's cost.  libdeflate computes the same CRC with
carry-less multiplication (Gopal et al., "Fast CRC Computation for Generic
Polynomials Using PCLMULQDQ", Intel 2009), several times faster than zlib's
table-driven loop.  It is loaded by soname on the first checksum, not at
import, and used only if it gives the known answer for ``b"123456789"``;
otherwise ``zlib.crc32`` is.  Both give identical values, so which one ran
never shows in a file.
"""

from __future__ import annotations

import ctypes
import functools
import zlib

import numpy as np

# By soname: ctypes.util.find_library would start ldconfig or gcc processes.
_SONAMES = ("libdeflate.so.0", "libdeflate.0.dylib")
_KNOWN_INPUT, _KNOWN_CRC = b"123456789", 0xCBF43926


def crc32(buffer) -> int:
    """CRC-32 of a C-contiguous buffer: bytes, a memoryview or an array."""
    return _implementation()(buffer)


@functools.cache
def _implementation():
    """libdeflate's CRC-32 if it loads and passes the known answer, else zlib's."""
    for name in _SONAMES:
        try:
            fn = ctypes.CDLL(name).libdeflate_crc32
        except (OSError, AttributeError):
            continue
        fn.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)
        fn.restype = ctypes.c_uint32

        def libdeflate_crc32(buffer) -> int:
            # ctypes finds the address of a writable buffer, such as a cache
            # record read by kcache, more cheaply than numpy's per-array
            # ctypes object; a read-only buffer needs a uint8 view.  ``view``
            # keeps the buffer alive for the call.
            view = memoryview(buffer)
            if not view.nbytes:
                return 0
            if view.readonly:
                return fn(0, np.frombuffer(view, dtype=np.uint8).ctypes.data, view.nbytes)
            return fn(0, ctypes.addressof(ctypes.c_char.from_buffer(view)), view.nbytes)

        if libdeflate_crc32(_KNOWN_INPUT) == _KNOWN_CRC:
            return libdeflate_crc32
    return zlib.crc32
