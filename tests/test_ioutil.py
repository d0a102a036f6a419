import hashlib
import io
import os
import stat

import numpy as np
import pytest

from trackattn.errors import ContractError
from trackattn.ioutil import (atomic_write_bytes, atomic_write_chunks, atomic_write_text,
                              float64_bytes, open_container, sha256_hex, write_container)


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_atomic_writes_get_the_umask_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(str(tmp_path / "new.txt"), "x\n")
        existing = tmp_path / "existing.bin"
        existing.write_bytes(b"old")
        os.chmod(existing, 0o600)
        atomic_write_bytes(str(existing), b"new")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "new.txt").st_mode) == mode
    assert stat.S_IMODE(os.stat(existing).st_mode) == mode
    assert existing.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.bin", "new.txt"]


def test_chunked_write_that_fails_midway_leaves_no_file(tmp_path):
    def chunks():
        yield b"gene_id,bin\n"
        raise ValueError("cannot make the next chunk")

    with pytest.raises(ValueError):
        atomic_write_chunks(str(tmp_path / "out.csv"), chunks())
    assert list(tmp_path.iterdir()) == []


def test_container_round_trip_streams_contiguous_arrays(tmp_path):
    path = str(tmp_path / "box")
    x, y = np.arange(6.0).reshape(2, 3), np.array([-0.0, 5e-324])
    assert np.shares_memory(float64_bytes(x), x)    # written without a copy
    write_container(path, b"magic-v1", {"b": [1, "\u00e9"], "a": True}, (x, y.astype(">f8")))
    blob = (tmp_path / "box").read_bytes()
    assert blob.startswith(b'magic-v1\n{"a":true,"b":[1,"\\u00e9"]}\n')
    with open_container(path, b"magic-v1", "box") as box:
        assert box.header == {"a": True, "b": [1, "\u00e9"]}
        got_x, got_y = box.arrays([(2, 3), (2,)])
    assert got_x.tobytes() == x.tobytes() and got_y.tobytes() == y.tobytes()
    assert got_x.flags.writeable
    with open_container(path, b"magic-v1", "box") as box, \
            pytest.raises(ContractError, match="payload holds 64 bytes, expected 72"):
        box.arrays([(3, 3)])
    with pytest.raises(ContractError, match="not a other file"):
        with open_container(path, b"other-v1", "other"):
            pass


def test_sha256_hex_hashes_the_rest_of_the_file():
    raw = io.BytesIO(b"head" + bytes(range(256)) * 5000)
    raw.read(4)
    assert sha256_hex(raw) == hashlib.sha256(bytes(range(256)) * 5000).hexdigest()
