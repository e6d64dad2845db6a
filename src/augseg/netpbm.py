"""Binary PGM (P5) and PPM (P6) files, 8-bit, round-trip exact."""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError


def _write(path, magic, array):
    array = np.ascontiguousarray(array, dtype=np.uint8)
    h, w = array.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(array.tobytes())


def write_pgm(path, image: np.ndarray):
    if image.ndim != 2:
        raise FormatError("PGM stores a single 2-d channel")
    _write(path, "P5", image)


def write_ppm(path, image: np.ndarray):
    if image.ndim != 3 or image.shape[2] != 3:
        raise FormatError("PPM stores an [H, W, 3] image")
    _write(path, "P6", image)


# whitespace and ``#`` comments, which run to the end of their line
_SPACE = re.compile(rb"(?:[ \t\r\n]+|#[^\n]*)*")
_DIGITS = re.compile(rb"[0-9]+")


def _header_int(data, pos, what, name):
    """The decimal header field at ``pos``, after any whitespace and
    comments; returns it with the position just past it."""
    pos = _SPACE.match(data, pos).end()
    if pos == len(data):
        raise FormatError(f"{name}: truncated header at byte {pos}")
    digits = _DIGITS.match(data, pos)
    if digits is None:
        raise FormatError(f"{name}: expected {what} at byte {pos}")
    return int(digits[0]), digits.end()


def _read(path, expected_magic, channels):
    with open(path, "rb") as fh:
        data = fh.read()
    name = str(path)
    if len(data) < 2:
        raise FormatError(f"{name}: truncated magic at byte 0")
    magic = data[:2].decode("ascii", errors="replace")
    if magic != expected_magic:
        raise FormatError(f"{name}: bad magic {magic!r} at byte 0")
    w, pos = _header_int(data, 2, "width", name)
    h, pos = _header_int(data, pos, "height", name)
    maxval, pos = _header_int(data, pos, "maxval", name)
    if maxval != 255:
        raise FormatError(f"{name}: only maxval 255 supported, got {maxval}")
    if pos >= len(data) or data[pos] not in b" \t\r\n":
        raise FormatError(f"{name}: expected single whitespace before "
                          f"payload at byte {pos}")
    payload_at = pos + 1
    nbytes = w * h * channels
    if len(data) < payload_at + nbytes:
        raise FormatError(
            f"{name}: truncated payload at byte {len(data)} "
            f"(need {payload_at + nbytes})")
    arr = np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=payload_at)
    shape = (h, w) if channels == 1 else (h, w, channels)
    return arr.reshape(shape).copy()


def read_pgm(path) -> np.ndarray:
    return _read(path, "P5", 1)


def read_ppm(path) -> np.ndarray:
    return _read(path, "P6", 3)
