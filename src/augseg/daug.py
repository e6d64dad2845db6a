"""DAUG v1 binary tensor files.

Layout (all little-endian):
  bytes 0-3   magic 0x44 0x41 0x55 0x47 ("DAUG")
  bytes 4-7   uint32 version (= 1)
  byte  8     dtype code: 1 = float32, 2 = float64, 3 = uint8
  byte  9     rank
  then        rank x uint64 extents
  then        row-major payload

Write/read round-trips are bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError, InputError

MAGIC = b"DAUG"
VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1")}
_CODE_FOR_DTYPE = {np.dtype(np.float32): 1, np.dtype(np.float64): 2,
                   np.dtype(np.uint8): 3}


def write_tensor(path, array: np.ndarray):
    array = np.asarray(array)
    if not array.flags["C_CONTIGUOUS"]:
        array = np.ascontiguousarray(array)
    code = _CODE_FOR_DTYPE.get(np.dtype(array.dtype))
    if code is None:
        raise FormatError(
            f"unsupported dtype {array.dtype}; DAUG stores float32/float64/uint8")
    if array.ndim > 255:
        raise FormatError("rank exceeds DAUG limit")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<BB", code, array.ndim))
        for extent in array.shape:
            fh.write(struct.pack("<Q", extent))
        fh.write(array.astype(array.dtype.newbyteorder("<"), copy=False).tobytes())


def read_tensor(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise InputError(f"tensor file not found: {path}") from None
    return _parse(data, str(path))


def _parse(data: bytes, name: str) -> np.ndarray:
    def need(n, offset, what):
        if len(data) < offset + n:
            raise FormatError(
                f"{name}: truncated {what} at byte {len(data)} (need {offset + n})")

    need(4, 0, "magic")
    if data[:4] != MAGIC:
        raise FormatError(f"{name}: bad magic at byte 0 (not a DAUG file)")
    need(4, 4, "version")
    version = struct.unpack_from("<I", data, 4)[0]
    if version != VERSION:
        raise FormatError(f"{name}: unsupported version {version} at byte 4")
    need(2, 8, "dtype/rank")
    code, rank = struct.unpack_from("<BB", data, 8)
    dtype = _DTYPE_CODES.get(code)
    if dtype is None:
        raise FormatError(f"{name}: unknown dtype code {code} at byte 8")
    need(8 * rank, 10, "extents")
    shape = struct.unpack_from(f"<{rank}Q" if rank else "<0Q", data, 10)
    payload_at = 10 + 8 * rank
    count = 1
    for extent in shape:
        count *= extent
    nbytes = count * dtype.itemsize
    need(nbytes, payload_at, "payload")
    if len(data) != payload_at + nbytes:
        raise FormatError(
            f"{name}: {len(data) - payload_at - nbytes} trailing bytes "
            f"at byte {payload_at + nbytes}")
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=payload_at)
    return arr.reshape(shape).copy()
