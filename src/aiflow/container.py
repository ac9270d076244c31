"""The framing shared by the four binary containers: TOYL, FAMD, FEAT, TOFC.

Each is little-endian and opens with a four-byte ASCII magic, a version byte
(1 for all four) and a fixed header; header writes that opening. A Reader
checks it, then reads the body part by part, so every format rejects a bad
magic, another version, a cut in any part and trailing bytes alike. Struct
formats here omit the byte order: "<" is always prepended.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import InvalidInputError, IoError
from .numerics import require_matrix

_VERSION = 1


def read_file(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def write_file(path, *parts: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            for part in parts:
                fh.write(part)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def header(magic: bytes, fmt: str, *fields) -> bytes:
    return struct.pack("<4sB" + fmt, magic, _VERSION, *fields)


class Reader:
    """One container read front to back; framing faults raise error.

    The constructor checks the header's length, magic and version, in that
    order, and keeps its fields. Each read names its part for the message.
    """

    def __init__(self, blob: bytes, magic: bytes, fmt: str, error=InvalidInputError):
        self.blob = blob
        self.offset = 0
        self.error = error
        found, version, *self.fields = self.unpack("4sB" + fmt, "header")
        if found != magic:
            raise error(f"bad magic {found!r}")
        if version != _VERSION:
            raise error(f"unsupported container version {version}")

    def _advance(self, size: int, what: str) -> int:
        start = self.offset
        if start + size > len(self.blob):
            raise self.error(f"container truncated in {what}")
        self.offset = start + size
        return start

    def unpack(self, fmt: str, what: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.blob, self._advance(struct.calcsize(fmt), what))

    def take(self, size: int, what: str) -> bytes:
        start = self._advance(size, what)
        return self.blob[start : self.offset]

    def matrix(self, rows: int, cols: int, name: str, dtype: str = "<f8") -> np.ndarray:
        """A rows x cols float64 copy of row-major data; NaN or Inf raises naming it."""
        count = rows * cols
        start = self._advance(count * np.dtype(dtype).itemsize, name)
        arr = np.frombuffer(self.blob, dtype=dtype, count=count, offset=start)
        return require_matrix(arr.reshape(rows, cols).astype(np.float64), name)

    def end(self) -> None:
        extra = len(self.blob) - self.offset
        if extra:
            raise self.error(f"container has {extra} trailing byte(s)")
