import os
import stat

import pytest

from trackattn.ioutil import atomic_write_bytes, atomic_write_chunks, atomic_write_text


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
