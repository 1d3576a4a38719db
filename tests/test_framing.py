import numpy as np
import pytest

from stairfec import sim
from stairfec.ff import FFCode, search_construction
from stairfec.framing import (
    FAMILY_CODES,
    HEADER,
    MAGIC,
    MAX_SYSTEM_ROWS,
    StreamFormatError,
    _frame_geometry,
    parse_header,
    read_stream,
    write_stream,
)
from stairfec.sim import build_codec


@pytest.mark.parametrize("family,m,t,s,kwargs", [
    ("sc", 4, 1, 1, dict(length=4)),
    ("ff", 6, 1, 1, dict(length=4)),
    ("pff", 7, 2, 41, dict(L=2, length=2)),
    ("pff", 7, 2, 41, dict(L=1, length=3)),
])
def test_stream_round_trip(family, m, t, s, kwargs):
    codec = build_codec(family, m, t, s, window=4, l_max=4, seed=0, **kwargs)
    rng = np.random.default_rng(0)
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    frame = codec.encode_payload(payload)
    data = write_stream(codec, frame)
    codec2, frame2 = read_stream(data, window=4, l_max=4)
    assert codec2.family == family
    assert (codec2.extract_payload(frame2) == payload).all()
    for a, b in zip(codec.channel_arrays(frame), codec2.channel_arrays(frame2)):
        assert (a == b).all()


def test_pad_bits_of_ones_change_nothing():
    """pff(7,2,41) with L = 1 and one period sends 1,682 bits, so its last
    byte holds 6 pad bits.  A stream whose pad bits are ones reads into the
    same keys and decodes to the same payload, and the zero slot, which the
    first pad bit lands on, reads 0."""
    codec = build_codec("pff", 7, 2, 41, L=1, length=1, seed=4)
    assert codec.n_tx == 1682
    rng = np.random.default_rng(4)
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    frame = codec.encode_payload(payload)
    frame.buf[rng.choice(codec.n_tx, 5, replace=False)] ^= 1
    data = write_stream(codec, frame)
    assert data[-1] & 0x3F == 0
    results = []
    for stream in data, data[:-1] + bytes([data[-1] | 0x3F]):
        codec2, frame2 = read_stream(stream)
        assert frame2.buf[-1] == 0
        keys = codec2.plan.syndromes(frame2.buf)
        assert keys.any()
        codec2.decode_frame(frame2)
        assert frame2.buf[-1] == 0
        results.append((keys, codec2.extract_payload(frame2)))
    (keys, decoded), (hostile_keys, hostile_decoded) = results
    assert (keys == hostile_keys).all()
    assert (decoded == hostile_decoded).all() and (decoded == payload).all()


def test_header_fields():
    codec = build_codec("pff", 7, 2, 41, L=3, length=2, seed=9)
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    data = write_stream(codec, frame)
    head = parse_header(data)
    assert head == {
        "family": "pff", "m": 7, "t": 2, "L": 3, "s": 41,
        "length": 2, "seed": 9, "payload_bits": codec.payload_bits,
    }


def test_header_field_overflow_names_the_field():
    codec = build_codec("pff", 7, 2, 41, L=256, length=1)
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    with pytest.raises(ValueError, match="L = 256 "):
        write_stream(codec, frame)
    codec = build_codec("sc", 4, 1, 1, length=4, seed=1 << 32)
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    with pytest.raises(ValueError, match="seed = 4294967296 "):
        write_stream(codec, frame)


def test_stream_decodes_under_the_encoders_construction():
    # pff(8,3,15) needs a random Pi, so the build seed picks the permutation
    codec = build_codec("pff", 8, 3, 15, L=1, length=1, seed=5)
    rng = np.random.default_rng(2)
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    frame = codec.encode_payload(payload)
    frame.buf[rng.choice(codec.n_tx, size=3, replace=False)] ^= 1
    codec2, frame2 = read_stream(write_stream(codec, frame))
    assert codec2.seed == 5
    assert (codec2.cons.pi == codec.cons.pi).all()
    codec2.decode_frame(frame2)
    assert (codec2.extract_payload(frame2) == payload).all()


def test_codec_without_identity_cannot_be_framed():
    # no header field can name permutations that no seeded search yields
    codec = FFCode(search_construction(6, 1, 1), 4)
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    with pytest.raises(ValueError, match="build_codec"):
        write_stream(codec, frame)


def test_header_naming_another_codec_rejected():
    # sc has no period length: a header with L = 1 names no codec
    codec = build_codec("sc", 4, 1, 1, length=4)
    data = bytearray(write_stream(codec, codec.encode_payload(
        np.zeros(codec.payload_bits, dtype=np.uint8))))
    data[7] = 1  # L
    with pytest.raises(StreamFormatError, match="disagrees"):
        read_stream(bytes(data))


def test_bad_magic_rejected():
    with pytest.raises(StreamFormatError):
        parse_header(b"NOPE" + b"\x00" * 16)


def test_truncated_stream_rejected():
    codec = build_codec("sc", 4, 1, 1, length=4)
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    data = write_stream(codec, frame)
    with pytest.raises(StreamFormatError):
        read_stream(data[: len(data) // 2])
    with pytest.raises(StreamFormatError):
        parse_header(data[:10])


def test_trailing_bytes_rejected():
    codec = build_codec("sc", 4, 1, 1, length=4)
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    data = write_stream(codec, frame)
    read_stream(data)
    with pytest.raises(StreamFormatError):
        read_stream(data + b"\x00")


@pytest.mark.parametrize("family,m,t,s,kwargs", [
    ("sc", 4, 1, 1, dict(length=4, seed=3)),
    ("ff", 6, 1, 1, dict(length=4, seed=3)),
    ("pff", 7, 2, 41, dict(L=2, length=2, seed=3)),
])
def test_read_stream_codec_matches_and_is_read_only(family, m, t, s, kwargs):
    codec = build_codec(family, m, t, s, **kwargs)
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    codec2, frame2 = read_stream(write_stream(codec, frame))
    assert (frame2.buf == frame.buf).all()
    assert all((w1 == w2).all() for (_, w1), (_, w2)
               in zip(codec.groups, codec2.groups))
    for c in (codec, codec2):
        tables = [c.info_starts, c.plan.flip_cells,
                  c.plan.flip_keys, c.plan.hkeys]
        tables += [words for _, words in c.groups]
        if family == "ff":
            tables += [c.cons.a_inv_ring, c.cons.a_inv_spectrum]
        if family == "pff":
            tables += [c.cons.a_inv, c.cons.u_inv]
        if family != "sc":
            tables += [c.cons.g_i, c.cons.code_row.g_p]
        assert not any(table.flags.writeable for table in tables)
    with pytest.raises(ValueError, match="read-only"):
        codec.groups[0][1][0, 0] = 0


@pytest.mark.parametrize("s,payload_bits", [
    (1, 0),              # payload size disagrees with the header's code
    (1, 2 * 32719**2),   # body far shorter than the frame
    (0, 2 * 32719**2),   # k - r odd: no ff code
])
def test_hostile_header_fails_before_any_search(monkeypatch, s, payload_bits):
    def refuse(*args, **kwargs):
        raise AssertionError("construction search ran")

    monkeypatch.setattr(sim, "search_construction", refuse)
    monkeypatch.setattr(sim, "search_pff_construction", refuse)
    # ff with m = 16, s = 1: M = 32719, so the body would be 268 MB and the
    # A matrix (M r)^2 = 2.5e12 bits; the header's own numbers reject it
    head = HEADER.pack(MAGIC, FAMILY_CODES["ff"], 16, 3, 0, s, 2, 0,
                       payload_bits)
    with pytest.raises(StreamFormatError):
        read_stream(head + bytes(64))


# (family, m, t, s, L, length, payload bits, body bytes): headers whose sizes
# agree with their bodies, of codes whose searches would invert too large a
# system: ff(11,3,1) has M = 990, r = 33 and A of M r = 32,670 rows (a 253 KB
# body); pff(10,8,1) has M = 431, r = 80 and B of 2 r^2 = 12,800 rows
OVERSIZED = [
    ("ff", 11, 3, 1, 0, 2, 2 * 990 * 990, -(-2 * 990 * (990 + 33) // 8)),
    ("pff", 10, 8, 1, 1, 1, 2 * 431 * (431 - 80), -(-2 * 431 * 431 // 8)),
]


@pytest.mark.parametrize("family,m,t,s,L,length,payload_bits,n_bytes", OVERSIZED)
def test_oversized_construction_rejected_before_any_search(
        monkeypatch, family, m, t, s, L, length, payload_bits, n_bytes):
    def refuse(*args, **kwargs):
        raise AssertionError("construction search ran")

    monkeypatch.setattr(sim, "search_construction", refuse)
    monkeypatch.setattr(sim, "search_pff_construction", refuse)
    head = HEADER.pack(MAGIC, FAMILY_CODES[family], m, t, L, s, length, 0,
                       payload_bits)
    with pytest.raises(StreamFormatError, match=f"limited to {MAX_SYSTEM_ROWS}"):
        read_stream(head + bytes(n_bytes))


def test_system_limit_admits_the_rate_13_14_code():
    # ff(10,3,183): M = 390, r = 30, so A has 11,700 rows
    head = parse_header(HEADER.pack(MAGIC, FAMILY_CODES["ff"], 10, 3, 0, 183,
                                    2, 0, 2 * 390 * 390))
    assert _frame_geometry(head) == (2 * 390 * 420, 2 * 390 * 390)


def test_consistent_header_of_unusable_code_rejected():
    # pff with L = 0: M = 29, sizes 841 stream and 435 payload bits agree
    # with the body, and construction refuses the period length
    head = HEADER.pack(MAGIC, FAMILY_CODES["pff"], 7, 2, 0, 41, 1, 0, 435)
    with pytest.raises(StreamFormatError, match="no usable code"):
        read_stream(head + bytes(106))
