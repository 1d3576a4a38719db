import numpy as np
import pytest

from stairfec import sim
from stairfec.ff import search_construction
from stairfec.framing import (
    FAMILY_CODES,
    HEADER,
    MAGIC,
    StreamFormatError,
    load_construction,
    parse_header,
    read_stream,
    save_construction,
    write_stream,
)
from stairfec.pff import search_pff_construction
from stairfec.sim import build_codec


@pytest.mark.parametrize("family,m,t,s,kwargs", [
    ("sc", 4, 1, 1, dict(length=4)),
    ("ff", 6, 1, 1, dict(length=4)),
    ("pff", 7, 2, 41, dict(L=2, length=2)),
    ("pff", 7, 2, 41, dict(L=1, length=3)),
])
def test_stream_round_trip(family, m, t, s, kwargs):
    codec = build_codec(family, m, t, s, window=4, l_max=4, **kwargs)
    rng = np.random.default_rng(0)
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    frame = codec.encode_payload(payload)
    data = write_stream(codec, frame, seed=0)
    codec2, frame2 = read_stream(data, window=4, l_max=4)
    assert codec2.family == family
    assert (codec2.extract_payload(frame2) == payload).all()
    for a, b in zip(codec.channel_arrays(frame), codec2.channel_arrays(frame2)):
        assert (a == b).all()


def test_header_fields():
    codec = build_codec("pff", 7, 2, 41, L=3, length=2)
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    data = write_stream(codec, frame, seed=9)
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
    codec = build_codec("sc", 4, 1, 1, length=4)
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    with pytest.raises(ValueError, match="seed = 4294967296 "):
        write_stream(codec, frame, seed=1 << 32)


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
    ("sc", 4, 1, 1, dict(length=4)),
    ("ff", 6, 1, 1, dict(length=4, seed=3)),
    ("pff", 7, 2, 41, dict(L=2, length=2, seed=3)),
])
def test_read_stream_codec_matches_and_is_read_only(family, m, t, s, kwargs):
    codec = build_codec(family, m, t, s, **kwargs)
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    codec2, frame2 = read_stream(write_stream(codec, frame, seed=3))
    assert (frame2.buf == frame.buf).all()
    assert all((w1 == w2).all() for (_, w1), (_, w2)
               in zip(codec.groups, codec2.groups))
    for c in (codec, codec2):
        tables = [c.info_idx, c.info_starts, c.plan.flip_words,
                  c.plan.flip_keys, c.plan.hcols]
        tables += [words for _, words in c.groups]
        if family != "sc":
            tables += [c.cons.a_inv, c.cons.g_i, c.cons.code_row.g_p]
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


def test_consistent_header_of_unusable_code_rejected():
    # pff with L = 0: M = 29, sizes 841 stream and 435 payload bits agree
    # with the body, and construction refuses the period length
    head = HEADER.pack(MAGIC, FAMILY_CODES["pff"], 7, 2, 0, 41, 1, 0, 435)
    with pytest.raises(StreamFormatError, match="no usable code"):
        read_stream(head + bytes(106))


def test_ff_cache_round_trip(tmp_path):
    cons = search_construction(6, 1, 1, seed=0)
    path = tmp_path / "ff.npz"
    save_construction(cons, path)
    loaded = load_construction(path)
    assert (loaded.a_inv == cons.a_inv).all()
    assert (loaded.pi1 == cons.pi1).all()
    assert (loaded.pi2 == cons.pi2).all()
    assert loaded.mode == cons.mode


def test_pff_cache_round_trip(tmp_path):
    cons = search_pff_construction(7, 2, 41, seed=0)
    path = tmp_path / "pff.npz"
    save_construction(cons, path)
    loaded = load_construction(path)
    assert (loaded.a_inv == cons.a_inv).all()
    assert (loaded.b_inv == cons.b_inv).all()
    assert (loaded.pi == cons.pi).all()


def test_tampered_cache_rejected(tmp_path):
    import json

    cons = search_construction(6, 1, 1, seed=0)
    path = tmp_path / "ff.npz"
    save_construction(cons, path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["a_inv"] = arrays["a_inv"].copy()
    arrays["a_inv"][0, 0] ^= 0xFF
    np.savez_compressed(path, **arrays)
    with pytest.raises(StreamFormatError):
        load_construction(path)


def test_sc_has_no_cache():
    from stairfec.bch import ComponentCode
    with pytest.raises(TypeError):
        save_construction(ComponentCode(4, 1, 1), "/tmp/never.npz")
