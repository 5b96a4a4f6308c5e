"""The one file boundary: every file the package reads or writes is opened here.

An OS failure becomes ``IoError`` and content that breaks its format
``FormatError``, each naming the file.  ``Reader`` walks the binary
containers (LPDW, LPDM, LPDC), checking every size against the bytes left.
It reads on demand from the open file, straight into the arrays it returns,
so no container is ever held whole in memory.
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


# bytes read per step when ``Reader.array`` widens an array: about 4 MB
_CHUNK_BYTES = 1 << 22


class Reader:
    """Sequential reader of one binary container that starts with ``magic``
    and a u32 version.

    A context manager: the file closes when the ``with`` block ends, and at
    once when the header is bad.
    """

    def __init__(self, path, magic: bytes, version: int):
        self.path = path
        try:
            self._fh = open(path, "rb")
        except OSError as exc:
            raise IoError(f"{path}: {exc}") from exc
        self._off = 0
        try:
            self._size = os.fstat(self._fh.fileno()).st_size
            head, got = self.unpack(f"<{len(magic)}sI")
            if head != magic:
                raise FormatError(f"{path}: bad magic {head!r}")
            if got != version:
                raise FormatError(f"{path}: unsupported version {got}")
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def remaining(self) -> int:
        return self._size - self._off

    def _advance(self, n: int) -> int:
        if n > self.remaining():
            raise FormatError(f"{self.path}: truncated at byte {self._off}")
        self._off += n
        return self._off - n

    def unpack(self, fmt: str) -> tuple:
        """``struct`` fields of a little-endian format; float fields must be finite."""
        start = self._off
        out = struct.unpack(fmt, self.array(np.uint8, struct.calcsize(fmt)))
        if not all(math.isfinite(v) for v in out if isinstance(v, float)):
            raise FormatError(f"{self.path}: non-finite value at byte {start}")
        return out

    def text(self, n: int) -> str:
        start = self._off
        try:
            return self.array(np.uint8, n).tobytes().decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: text at byte {start} is not UTF-8") from None

    def array(self, dtype, count: int, widen=None) -> np.ndarray:
        """A writable array of ``count`` items of ``dtype`` (plain or structured),
        read straight from the file; every float in it must be finite.

        With ``widen`` (a wider float dtype) the items are read about 4 MB at
        a time and each part is widened into one array of that dtype, so no
        whole copy in ``dtype`` is ever held.
        """
        dtype = np.dtype(dtype)
        start = self._advance(dtype.itemsize * count)
        out = np.empty(count, dtype=widen or dtype)
        step = max(count, 1) if widen is None else max(1, _CHUNK_BYTES // dtype.itemsize)
        part = None if widen is None else np.empty(min(step, count), dtype=dtype)
        for i in range(0, count, step):
            got = out[i:i + step] if part is None else part[:min(step, count - i)]
            try:
                n = self._fh.readinto(got.view(np.uint8))
            except OSError as exc:
                raise IoError(f"{self.path}: {exc}") from exc
            if n != got.nbytes:  # the file shrank since it was opened
                raise FormatError(f"{self.path}: truncated at byte "
                                  f"{start + i * dtype.itemsize + n}")
            for name in dtype.names or (None,):
                field = got if name is None else got[name]
                if field.dtype.kind == "f" and not np.isfinite(field).all():
                    raise FormatError(f"{self.path}: non-finite value in the {count} items "
                                      f"at byte {start}")
            if part is not None:
                out[i:i + got.shape[0]] = got
        return out

    def end(self) -> None:
        if self.remaining():
            raise FormatError(f"{self.path}: {self.remaining()} trailing bytes")
