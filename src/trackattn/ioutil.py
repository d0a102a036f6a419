"""Atomic file writes so failed commands never leave partial outputs, and
the binary container that checkpoints and dataset packs share.

A container is a magic line, a line of compact JSON with sorted keys (the
header), then a payload of little-endian float64 values, array after
array. A reader checks the magic line and decodes the header before it
allocates anything for the payload, and bounds the payload by the file's
size.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import tempfile
from contextlib import contextmanager
from itertools import chain

import numpy as np

from .errors import ContractError


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_bytes(path: str, payload: bytes) -> None:
    atomic_write_chunks(path, (payload,))


def atomic_write_chunks(path: str, chunks) -> None:
    """Write the byte chunks in turn to a temp file in the target
    directory, then rename it into place. An exception raised while the
    chunks are made leaves no file behind.

    The file gets the mode of a newly created file, 0o666 less the umask,
    not the private 0o600 of the temp file. When the temp file cannot be
    made or renamed into place, the OSError names ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    with _naming(path):
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
        with _naming(path):
            os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def _naming(path: str):
    """Raise an OSError of the block as one about ``path``, not about the
    random temp file beside it."""
    try:
        yield
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ------------------------------------------------------------- containers


def header_bytes(header: dict) -> bytes:
    """The header as a container line holds it, without the newline."""
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def float64_bytes(a: np.ndarray) -> np.ndarray:
    """``a`` as the payload bytes: a view, unless ``a`` is not a
    C-contiguous little-endian float64 array."""
    return np.ascontiguousarray(a, dtype="<f8").reshape(-1).view(np.uint8)


def write_container(path: str, magic: bytes, header: dict, arrays) -> None:
    """Write a container atomically, streaming each array's buffer."""
    head = magic + b"\n" + header_bytes(header) + b"\n"
    atomic_write_chunks(path, chain((head,), map(float64_bytes, arrays)))


class Container:
    """An open container: its decoded ``header``, and its payload, read
    with :meth:`arrays`. Made by :func:`open_container`."""

    def __init__(self, path: str, fh, header):
        self.path, self.header, self._fh = path, header, fh

    def arrays(self, shapes) -> list[np.ndarray]:
        """The payload as new arrays of the given shapes, in turn. Unless
        the payload holds exactly their values, raise ContractError before
        allocating any of them."""
        shapes = [tuple(shape) for shape in shapes]
        expected = 8 * sum(math.prod(shape) for shape in shapes)
        held = os.fstat(self._fh.fileno()).st_size - self._fh.tell()
        if held != expected:
            raise ContractError(f"{self.path}: payload holds {held} bytes, expected {expected}")
        out = []
        for shape in shapes:
            out.append(np.empty(shape, dtype="<f8"))
            if self._fh.readinto(out[-1].reshape(-1).view(np.uint8)) != out[-1].nbytes:
                raise ContractError(f"{self.path}: payload ends early")
        return out


@contextmanager
def open_container(path: str, magic: bytes, kind: str):
    """Open the container at ``path`` as a :class:`Container`. A wrong magic
    line or a header that is not UTF-8 JSON raises ContractError naming
    the ``kind`` of file expected."""
    with open(path, "rb") as fh:
        if fh.readline().removesuffix(b"\n") != magic:
            raise ContractError(f"{path}: not a {kind} file")
        try:
            header = json.loads(fh.readline().removesuffix(b"\n").decode("utf-8"))
        except (ValueError, RecursionError) as err:  # bad UTF-8 or JSON, or nested too deep
            raise ContractError(
                f"{path}: malformed {kind} header: not UTF-8 JSON ({err})") from None
        yield Container(path, fh, header)


class HashingReader(io.RawIOBase):
    """A raw reader that hands on the bytes of the binary file ``raw`` and
    keeps their SHA-256 in ``sha256``; put it under a buffered reader to
    hash exactly the bytes a parse reads."""

    def __init__(self, raw):
        self.raw, self.sha256 = raw, hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.raw.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n


def sha256_hex(raw) -> str:
    """The SHA-256 of what is left of the binary file ``raw``."""
    reader, chunk = HashingReader(raw), bytearray(1 << 20)
    while reader.readinto(chunk):
        pass
    return reader.sha256.hexdigest()
