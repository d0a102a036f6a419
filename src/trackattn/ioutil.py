"""Atomic file writes so failed commands never leave partial outputs."""

from __future__ import annotations

import os
import tempfile


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write to a temp file in the target directory, then rename into place.

    The file gets the mode of a newly created file, 0o666 less the umask,
    not the private 0o600 of the temp file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
