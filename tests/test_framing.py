import json

import numpy as np
import pytest

from stairfec import sim
from stairfec.bch import ComponentCode
from stairfec.ff import FFCode, FFConstruction, low_ef_indices, search_construction
from stairfec.framing import (
    FAMILY_CODES,
    HEADER,
    MAGIC,
    MAX_SYSTEM_ROWS,
    StreamFormatError,
    _frame_geometry,
    load_construction,
    parse_header,
    read_stream,
    save_construction,
    write_stream,
)
from stairfec.galois import GaloisField
from stairfec.pff import PFFCode, search_pff_construction
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
        tables = [c.info_idx, c.info_starts, c.plan.flip_cells,
                  c.plan.flip_keys, c.plan.hkeys]
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


def _same_codec(cons, loaded, make_codec):
    """Codecs on both constructions encode alike and compile equal plans."""
    codec, codec2 = make_codec(cons), make_codec(loaded)
    payload = np.random.default_rng(5).integers(0, 2, codec.payload_bits,
                                                dtype=np.uint8)
    assert (codec.encode_payload(payload).buf
            == codec2.encode_payload(payload).buf).all()
    for name in ("flip_cells", "flip_keys", "hkeys"):
        assert (getattr(codec.plan, name) == getattr(codec2.plan, name)).all()
    assert all((w1 == w2).all() for (_, w1), (_, w2)
               in zip(codec.groups, codec2.groups))


def test_ff_cache_round_trip(tmp_path):
    cons = search_construction(6, 1, 1, seed=0)
    path = tmp_path / "ff.npz"
    save_construction(cons, path)
    loaded = load_construction(path)
    assert (loaded.a_inv == cons.a_inv).all()
    assert (loaded.pi1 == cons.pi1).all()
    assert (loaded.pi2 == cons.pi2).all()
    assert loaded.mode == cons.mode
    _same_codec(cons, loaded, lambda c: FFCode(c, 4, window=4, l_max=4))


def test_pff_cache_round_trip(tmp_path):
    cons = search_pff_construction(7, 2, 41, seed=0)
    path = tmp_path / "pff.npz"
    save_construction(cons, path)
    loaded = load_construction(path)
    assert (loaded.a_inv == cons.a_inv).all()
    assert (loaded.b_inv == cons.b_inv).all()
    assert (loaded.pi == cons.pi).all()
    _same_codec(cons, loaded, lambda c: PFFCode(c, 2, 2, window=4, l_max=4))


def _edit(key, fn):
    return lambda arrays: {**arrays, key: fn(arrays[key])}


def _drop(key):
    return lambda arrays: {k: v for k, v in arrays.items() if k != key}


def _edit_meta(fn):
    return _edit("meta", lambda meta: json.dumps(fn(json.loads(str(meta)))))


def _flip_first_byte(a):
    a = a.copy()
    a[0, 0] ^= 0xFF
    return a


def _repeat_first(pi):
    pi = pi.copy()
    pi[1] = pi[0]
    return pi


@pytest.fixture(scope="module")
def cache_arrays(tmp_path_factory):
    """The arrays of an ff(6,1,1) and a pff(7,2,41) cache, by family."""
    out = {}
    # a valid ff(6,1,1) construction over another field polynomial
    field = GaloisField(6, 0x61)
    codes = (ComponentCode(6, 1, 1, field=field),
             ComponentCode(6, 1, 1, role="col", reciprocal=True, field=field))
    for family, cons in [("ff", search_construction(6, 1, 1, seed=0)),
                         ("pff", search_pff_construction(7, 2, 41, seed=0)),
                         ("ff-0x61", FFConstruction(*codes,
                                                    *low_ef_indices(25, 6)))]:
        path = tmp_path_factory.mktemp("cache") / f"{family}.npz"
        save_construction(cons, path)
        with np.load(path) as data:
            out[family] = {k: data[k] for k in data.files}
    return out


@pytest.mark.parametrize("family,tamper", [
    pytest.param("ff", _edit("a_inv", _flip_first_byte), id="ff-inverse"),
    pytest.param("pff", _edit("a_inv", _flip_first_byte), id="pff-stage1"),
    pytest.param("pff", _edit("b_inv", _flip_first_byte), id="pff-stage2"),
    pytest.param("ff", _drop("a_inv"), id="missing-array"),
    pytest.param("ff", _drop("meta"), id="missing-meta"),
    pytest.param("ff", _edit("pi1", lambda pi: pi[:-1]), id="short-pi1"),
    pytest.param("ff", _edit("pi1", lambda pi: pi + 1), id="pi1-out-of-range"),
    pytest.param("ff", _edit("pi1", _repeat_first), id="pi1-repeated"),
    pytest.param("pff", _edit("pi", _repeat_first), id="pi-repeated"),
    pytest.param("ff", _edit("pi1", lambda pi: pi.astype(float)),
                 id="pi1-not-integer"),
    pytest.param("ff", _edit("a_inv", lambda a: a[:-1]), id="short-a_inv"),
    pytest.param("pff", _edit("b_inv", lambda a: a[:-1]), id="short-b_inv"),
    pytest.param("ff", _edit("meta", lambda meta: str(meta)[:-1]),
                 id="bad-json"),
    pytest.param("ff", _edit_meta(lambda meta: {**meta, "code": {
        **meta["code"], "m": 20}}), id="m-20"),
    pytest.param("ff", _edit_meta(lambda meta: {**meta, "kind": "sc"}),
                 id="unknown-kind"),
    pytest.param("ff", _edit_meta(lambda meta: [meta]), id="meta-not-object"),
    pytest.param("ff", lambda arrays: b"not a cache", id="not-a-zip"),
    pytest.param("ff", lambda arrays: b"PK\x03\x04" + bytes(40),
                 id="truncated-zip"),
    pytest.param("ff", lambda arrays: b"", id="empty-file"),
    pytest.param("ff-0x61", lambda arrays: arrays, id="other-polynomial"),
    pytest.param("ff", _edit_meta(lambda meta: {**meta, "code": {
        **meta["code"], "generator": "0x61"}}), id="other-generator"),
])
def test_tampered_cache_rejected(tmp_path, cache_arrays, family, tamper):
    edited = tamper(dict(cache_arrays[family]))
    path = tmp_path / "cache.npz"
    if isinstance(edited, bytes):
        path.write_bytes(edited)
    else:
        np.savez_compressed(path, **edited)
    with pytest.raises(StreamFormatError):
        load_construction(path)


def test_sc_has_no_cache():
    with pytest.raises(TypeError):
        save_construction(ComponentCode(4, 1, 1), "/tmp/never.npz")
