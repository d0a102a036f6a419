"""Byte-level corruptions of a checkpoint container, shared by the loader
fuzz (test_model.py) and the command-line fuzz (test_cli.py)."""

from hypothesis import strategies as st


@st.composite
def corrupted(draw, blob):
    """``blob`` truncated, extended by 1-64 random bytes, or with 1-8 of
    its bytes flipped."""
    out = bytearray(blob)
    kind = draw(st.sampled_from(["truncate", "extend", "flip"]))
    if kind == "truncate":
        del out[draw(st.integers(0, len(out) - 1)):]
    elif kind == "extend":
        out += draw(st.binary(min_size=1, max_size=64))
    else:
        for _ in range(draw(st.integers(1, 8))):
            out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
    return bytes(out)
