"""The one file boundary: every file the package reads or writes is opened here.

An OS failure becomes ``IoError`` and content that breaks its format
``FormatError``, each naming the file.  ``Reader`` walks the binary
containers (LPDW, LPDM, LPDC), checking every size against the bytes left.
"""

import contextlib
import math
import os
import struct

import numpy as np

from .errors import FormatError, IoError


def read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc


def read_lines(path) -> list:
    """The lines of a UTF-8 text file, without their line ends."""
    try:
        return read_bytes(path).decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte {exc.start} is not UTF-8 text") from None


@contextlib.contextmanager
def writing(path, mode: str = "wb"):
    """An open file to write; an OSError while opening or writing becomes IoError."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc


def make_dirs(path) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc


class Reader:
    """Sequential reader of one binary container that starts with ``magic``
    and a u32 version."""

    def __init__(self, path, magic: bytes, version: int):
        self.path = path
        self._blob = read_bytes(path)
        self._off = 0
        head, got = self.unpack(f"<{len(magic)}sI")
        if head != magic:
            raise FormatError(f"{path}: bad magic {head!r}")
        if got != version:
            raise FormatError(f"{path}: unsupported version {got}")

    def remaining(self) -> int:
        return len(self._blob) - self._off

    def _advance(self, n: int) -> int:
        if n > self.remaining():
            raise FormatError(f"{self.path}: truncated at byte {self._off}")
        self._off += n
        return self._off - n

    def unpack(self, fmt: str) -> tuple:
        """``struct`` fields of a little-endian format; float fields must be finite."""
        start = self._advance(struct.calcsize(fmt))
        out = struct.unpack_from(fmt, self._blob, start)
        if not all(math.isfinite(v) for v in out if isinstance(v, float)):
            raise FormatError(f"{self.path}: non-finite value at byte {start}")
        return out

    def text(self, n: int) -> str:
        start = self._advance(n)
        try:
            return self._blob[start:start + n].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: text at byte {start} is not UTF-8") from None

    def array(self, dtype, count: int) -> np.ndarray:
        """A writable copy of ``count`` items of ``dtype`` (plain or structured);
        every float in it must be finite."""
        dtype = np.dtype(dtype)
        start = self._advance(dtype.itemsize * count)
        out = np.frombuffer(self._blob, dtype=dtype, count=count, offset=start).copy()
        for name in dtype.names or (None,):
            field = out if name is None else out[name]
            if field.dtype.kind == "f" and not np.isfinite(field).all():
                raise FormatError(f"{self.path}: non-finite value in the {count} items "
                                  f"at byte {start}")
        return out

    def end(self) -> None:
        if self.remaining():
            raise FormatError(f"{self.path}: {self.remaining()} trailing bytes")
