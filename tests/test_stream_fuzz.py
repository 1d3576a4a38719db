"""``stairfec decode`` on fuzzed stream headers and bodies: exit 0 or 4."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from stairfec import framing
from stairfec.cli import main
from stairfec.framing import FAMILY_CODES, HEADER, MAGIC

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BODY_BYTES = 4096  # largest body drawn
# A construction system small enough that every accepted ff/pff header
# searches in milliseconds; the limit's own value is pinned in test_framing.
SYSTEM_ROWS = 400


def field(bits):
    return st.integers(0, (1 << bits) - 1)


@st.composite
def headers(draw):
    """Header fields: any values, or those of a code near a usable one."""
    if draw(st.booleans()):
        return {name: draw(field(bits)) for name, bits in
                [("family", 8), ("m", 8), ("t", 8), ("L", 8), ("s", 16),
                 ("length", 16), ("seed", 32), ("payload_bits", 32)]}
    family = draw(st.sampled_from(sorted(FAMILY_CODES)))
    m, t = draw(st.sampled_from([(6, 1), (7, 1), (7, 2), (8, 1), (8, 2)]))
    # a block side M the family accepts: M > r for sc, M > 2r for ff and
    # pff, with n = 2M for sc and 2(M + r) for ff and pff below 2^m
    pads = 0 if family == "sc" else m * t
    side = draw(st.integers(m * t + 1 + pads,
                            min(((1 << m) - 1) // 2 - pads, 90)))
    return {"family": FAMILY_CODES[family], "m": m, "t": t,
            "L": draw(st.sampled_from([0, 0, 1, 2])),
            "s": (1 << m) - 1 - 2 * (side + pads),
            "length": draw(st.sampled_from([1, 2, 2, 4, 0])),
            "seed": draw(st.integers(0, 3)), "payload_bits": 0}


@st.composite
def streams(draw):
    """A header and a body whose sizes mostly agree with the header's."""
    fields = draw(headers())
    n_bytes = draw(st.integers(0, BODY_BYTES))
    try:
        head = framing.parse_header(HEADER.pack(MAGIC, *fields.values()))
        n_tx, payload_bits = framing._frame_geometry(head)
    except framing.StreamFormatError:
        pass
    else:
        if -(-n_tx // 8) <= BODY_BYTES:
            fields["payload_bits"] = payload_bits
            n_bytes = -(-n_tx // 8) + draw(st.sampled_from([0] * 6 + [-1, 1]))
    body = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, 256, n_bytes, dtype=np.uint8).tobytes()
    magic = draw(st.sampled_from([MAGIC] * 7 + [b"SFC0"]))
    return HEADER.pack(magic, *fields.values()) + body


@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(streams())
def test_decode_of_any_stream_exits_0_or_4(data):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(framing, "MAX_SYSTEM_ROWS", SYSTEM_ROWS)
        stream = Path(tmp) / "in.sfc"
        stream.write_bytes(data)
        code = main(["decode", "--in", str(stream),
                     "--out", str(Path(tmp) / "out.bin")])
    assert code in (0, 4)
