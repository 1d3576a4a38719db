"""The memos: a process searches each FF/PFF code once, builds each
syndrome table once and builds each stream codec once.

``ff.search_construction`` and ``pff.search_pff_construction`` keep their
results by ``(m, t, s, seed)``, ``bch.syndrome_table`` by
``(m, t)`` and ``framing.read_stream`` its codecs by the header's
identity, ``window`` and ``l_max``, each within ``gf2.MEMO_BYTES``.
"""

import gc
import hashlib
import types

import numpy as np
import pytest

from stairfec import bch, engine, ff, framing, gf2, pff, sim
from stairfec.framing import FAMILY_CODES, HEADER, MAGIC, StreamFormatError

# search, module, the candidate builder it calls, a small code
SEARCHES = {
    "ff": (ff.search_construction, ff, "build_construction", (6, 1, 19)),
    "pff": (pff.search_pff_construction, pff, "build_pff_construction",
            (6, 1, 1)),
}


# build_codec arguments of a small code of each family
CODECS = {
    "sc": ((5, 2, 1), dict(length=4)),
    "ff": ((6, 1, 1), dict(length=4)),
    "pff": ((6, 1, 1), dict(L=2, length=2)),
}


@pytest.fixture(autouse=True)
def cold_memo():
    for search, *_ in SEARCHES.values():
        search.cache_clear()
    bch.syndrome_table.cache_clear()
    framing._stream_codec.cache_clear()


def refuse(*args, **kwargs):
    raise AssertionError("searched again")


@pytest.mark.parametrize("family", SEARCHES)
def test_repeated_search_returns_the_kept_construction(monkeypatch, family):
    search, _, _, code = SEARCHES[family]
    first = search(*code, seed=0)
    monkeypatch.setattr(gf2, "invert", refuse)
    assert search(*code, seed=0) is first
    # the key holds every argument, defaults included, cast to int
    assert search(*map(np.int64, code)) is first


@pytest.mark.parametrize("family", SEARCHES)
def test_other_seed_searches_again(monkeypatch, family):
    search, _, _, code = SEARCHES[family]
    first = search(*code, seed=0)
    calls = []
    invert = gf2.invert

    def counting(a):
        calls.append(a.shape)
        return invert(a)

    monkeypatch.setattr(gf2, "invert", counting)
    assert search(*code, seed=1) is not first
    assert len(calls) > 0


@pytest.mark.parametrize("family", SEARCHES)
def test_failed_search_is_repeated_on_every_call(monkeypatch, family):
    search, module, builder, code = SEARCHES[family]
    calls = []

    def singular(*args, **kwargs):
        calls.append(args)
        raise gf2.SingularMatrixError("singular")

    monkeypatch.setattr(module, builder, singular)
    monkeypatch.setattr(module, "MAX_TRIES", 2)
    tried = []
    for _ in range(2):
        with pytest.raises(gf2.SingularMatrixError):
            search(*code)
        tried.append(len(calls))
    assert tried[0] > 0 and tried[1] == 2 * tried[0]


def test_budget_evicts_least_recently_used_and_skips_oversize(monkeypatch):
    search = ff.search_construction
    size = gf2.nbytes(search(6, 1, 19, seed=0))
    assert size > 0
    search.cache_clear()
    monkeypatch.setattr(gf2, "MEMO_BYTES", 2 * size)
    a = search(6, 1, 19, seed=0)
    b = search(6, 1, 19, seed=1)
    assert search(6, 1, 19, seed=0) is a  # b is now the least recently used
    c = search(6, 1, 19, seed=2)
    assert search(6, 1, 19, seed=0) is a
    assert search(6, 1, 19, seed=2) is c
    assert search(6, 1, 19, seed=1) is not b

    search.cache_clear()
    monkeypatch.setattr(gf2, "MEMO_BYTES", size - 1)
    big = search(6, 1, 19, seed=0)
    assert search(6, 1, 19, seed=0) is not big


def test_memoized_searches_keep_their_names():
    for search, _, _, _ in SEARCHES.values():
        assert callable(search.cache_clear)
    assert ff.search_construction.__name__ == "search_construction"
    assert pff.search_pff_construction.__name__ == "search_pff_construction"


def test_second_read_stream_of_a_body_reuses_the_construction(monkeypatch):
    codec = sim.build_codec("ff", 6, 1, 1, length=4)
    rng = np.random.default_rng(5)
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    frame = codec.encode_payload(payload)
    sim.bsc_corrupt(codec, frame, 0.002, rng)
    body = framing.write_stream(codec, frame)

    def decode():
        # a codec built anew, so that only the construction memo is reused
        framing._stream_codec.cache_clear()
        dec_codec, received = framing.read_stream(body)
        dec_codec.decode_frame(received)
        return dec_codec.cons, dec_codec.extract_payload(received)

    cons, first = decode()
    monkeypatch.setattr(gf2, "invert", refuse)
    again, second = decode()
    assert again is cons is codec.cons
    assert (first == second).all()


def test_codes_over_one_field_share_one_syndrome_table():
    row, col = bch.code_pair(8, 3, 63)
    other = bch.ComponentCode(8, 3, 15)
    assert row.bdd_table is not None
    assert col.bdd_table is row.bdd_table
    assert other.bdd_table is row.bdd_table
    assert bch.ComponentCode(8, 2, 63).bdd_table is not row.bdd_table


def test_second_sc_read_stream_reuses_the_syndrome_table(monkeypatch):
    codec = sim.build_codec("sc", 8, 3, 63, length=2)
    rng = np.random.default_rng(6)
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    frame = codec.encode_payload(payload)
    sim.bsc_corrupt(codec, frame, 0.005, rng)
    body = framing.write_stream(codec, frame)

    def decode():
        framing._stream_codec.cache_clear()
        dec_codec, received = framing.read_stream(body)
        dec_codec.decode_frame(received)
        return dec_codec.code.bdd_table, dec_codec.extract_payload(received)

    table, first = decode()
    monkeypatch.setattr(bch, "build_syndrome_table", refuse)
    again, second = decode()
    assert again is table is codec.code.bdd_table
    assert (first == second).all() and (first == payload).all()


# -- stream codecs --------------------------------------------------------------


def noisy_body(family, seed=0, **changes):
    """A stream of a small code of ``family`` with BSC noise, and the payload
    that the encoder's own codec decodes from it."""
    args, kwargs = CODECS[family]
    codec = sim.build_codec(family, *args, **{**kwargs, "seed": seed, **changes})
    rng = np.random.default_rng(7)
    frame = codec.encode_payload(
        rng.integers(0, 2, codec.payload_bits, dtype=np.uint8))
    sim.bsc_corrupt(codec, frame, 0.005, rng)
    body = framing.write_stream(codec, frame)
    codec.decode_frame(frame)
    return body, codec.extract_payload(frame)


def decoded(body, **settings):
    codec, frame = framing.read_stream(body, **settings)
    codec.decode_frame(frame)
    return codec, frame, codec.extract_payload(frame)


def kept_codecs():
    return [key[1:] for key in gf2._memo
            if key[0] is framing._stream_codec.__wrapped__]


def held_bytes(roots):
    """Bytes of the array buffers reachable from ``roots``, each buffer once,
    found through ``gc.get_referents`` apart from gf2.nbytes."""
    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType)
    buffers, seen, todo = {}, set(), list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
        else:
            todo.extend(gc.get_referents(obj))
    return sum(buffers.values())


def kept_results():
    return [result for result, _ in gf2._memo.values()]


def memo_held_bytes():
    return held_bytes(kept_results())


def codec_arrays(value):
    """Every array of a codec and its plan, found apart from gf2.nbytes."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from codec_arrays(item)
    elif isinstance(value, (engine.FrameCodec, engine.Plan)):
        for item in vars(value).values():
            yield from codec_arrays(item)


@pytest.mark.parametrize("family", CODECS)
def test_second_read_stream_of_a_body_returns_the_kept_codec(monkeypatch,
                                                             family):
    body, expected = noisy_body(family)
    codec, frame, first = decoded(body)
    assert len(kept_codecs()) == 1

    def refuse(*args, **kwargs):
        raise AssertionError("compiled a plan again")

    monkeypatch.setattr(engine, "Plan", refuse)
    again, frame2, second = decoded(body)
    assert again is codec
    assert frame2.buf is not frame.buf  # the frame is the caller's own
    assert (second == first).all() and (first == expected).all()


@pytest.mark.parametrize("family", CODECS)
def test_other_settings_or_identity_give_another_codec(family):
    body, _ = noisy_body(family)
    codec = decoded(body)[0]
    others = [decoded(body, window=3)[0], decoded(body, l_max=2)[0],
              decoded(noisy_body(family, seed=1)[0])[0],
              decoded(noisy_body(family, length=codec.length + 2)[0])[0]]
    assert (codec.window, codec.l_max) == (7, 8)
    assert [(c.window, c.l_max) for c in others[:2]] == [(3, 8), (7, 2)]
    assert [c.seed for c in others[2:]] == [1, 0]
    assert others[3].length == codec.length + 2
    assert len({id(c) for c in [codec, *others]}) == 5
    assert len(kept_codecs()) == 5
    assert decoded(body)[0] is codec


@pytest.mark.parametrize("family", CODECS)
def test_codec_enters_the_memo_complete(monkeypatch, family):
    body, _ = noisy_body(family, seed=2)
    entering = []
    buffers = gf2._buffers

    def recording(results):
        entering.extend((result, getattr(result, "seed", None))
                        for result in results)
        return buffers(results)

    monkeypatch.setattr(gf2, "_buffers", recording)
    codec = decoded(body)[0]
    assert (codec, 2) in entering
    assert codec.identity()["seed"] == 2


def test_rejected_header_leaves_no_entry():
    body, _ = noisy_body("sc")
    head = bytearray(body[: HEADER.size])
    head[-4:] = (1).to_bytes(4, "little")  # payload_bits the code cannot carry
    rejected = [
        body[:-1],                    # truncated body
        body + b"\x00",               # trailing byte
        bytes(head) + body[HEADER.size :],
        # ff(11,3,1): sizes agree, but A would have 32,670 rows
        HEADER.pack(MAGIC, FAMILY_CODES["ff"], 11, 3, 0, 1, 2, 0,
                    2 * 990 * 990) + bytes(-(-2 * 990 * 1023 // 8)),
        # pff with L = 0: sizes agree, and construction refuses the code
        HEADER.pack(MAGIC, FAMILY_CODES["pff"], 7, 2, 0, 41, 1, 0, 435)
        + bytes(-(-841 // 8)),
    ]
    for data in rejected:
        with pytest.raises(StreamFormatError):
            framing.read_stream(data)
    assert kept_codecs() == []


@pytest.mark.parametrize("family", CODECS)
def test_codec_larger_than_the_budget_is_built_but_not_kept(monkeypatch,
                                                            family):
    body, expected = noisy_body(family)
    args, kwargs = CODECS[family]
    size = gf2.nbytes(sim.build_codec(family, *args, **kwargs))
    monkeypatch.setattr(gf2, "MEMO_BYTES", size - 1)
    codec, _, first = decoded(body)
    again, _, second = decoded(body)
    assert again is not codec
    assert kept_codecs() == []
    assert (first == expected).all() and (second == expected).all()


@pytest.mark.parametrize("family", CODECS)
def test_codec_bytes_count_what_it_keeps_alive_once(family):
    args, kwargs = CODECS[family]
    codec = sim.build_codec(family, *args, **kwargs)
    plan = codec.plan
    # the stacked word tables, pad and zero-slot columns included, are views
    # covering one slot array, and the groups and windows are views of those
    # tables
    slots = {id(table.base) for _, table, _ in plan.stacks}
    assert len(slots) == 1
    own = (codec.info_starts.nbytes
           + plan.hkeys.nbytes + plan.flip_cells.nbytes
           + plan.flip_keys.nbytes
           + sum(table.nbytes for _, table, _ in plan.stacks))
    # the construction (ff/pff) or component code (sc) the codec shares
    shared = getattr(codec, "cons", codec.code)
    assert gf2.nbytes(shared) > 0
    assert gf2.nbytes(codec) == own + gf2.nbytes(shared)
    assert gf2.nbytes(codec, shared, plan) == gf2.nbytes(codec)
    assert gf2.nbytes(codec) == held_bytes([codec])
    # the first decode compiles the syndrome pieces (Plan.pieces), which the
    # memo counts when it walks its results again before evicting: their
    # gathers are views of the slot array and their matrices views of the
    # codes' check rows, or copies where a cluster's positions are permuted,
    # which the pieces of every period share
    assert "pieces" not in vars(plan)
    codec.decode_frame(codec.frame_from_bits(np.zeros(codec.n_tx, np.uint8)))
    copies = {id(matrix): matrix for *_, pieces in plan.pieces
              for *_, matrix in pieces if matrix.base is None}
    assert gf2.nbytes(codec) == (own + gf2.nbytes(shared)
                                 + sum(m.nbytes for m in copies.values()))
    assert gf2.nbytes(codec) == held_bytes([codec])


def test_views_of_one_buffer_count_once():
    class Holder:
        pass

    holder, inner = Holder(), Holder()
    base = np.zeros((4, 8), dtype=np.uint8)
    holder.whole, holder.rows = base, base[:2]
    holder.listed = [(base[1:], None), "not an array"]
    holder.other = np.zeros(3, dtype=np.uint16)
    assert gf2.nbytes(holder) == base.nbytes + holder.other.nbytes
    inner.column = base[:, 0]
    inner.own = np.zeros(5, dtype=np.int64)
    holder.keyed = {"inner": inner}
    expected = base.nbytes + holder.other.nbytes + inner.own.nbytes
    assert gf2.nbytes(holder) == expected
    assert gf2.nbytes(holder, inner, base) == expected
    assert gf2.nbytes(inner) == base.nbytes + inner.own.nbytes


def test_memo_keeps_no_more_alive_than_its_budget(monkeypatch):
    """A kept codec holds its construction.  Once the construction's own
    entry is evicted, the memo still counts it, through the codec, so the
    memory that kept results hold stays within MEMO_BYTES."""
    search = ff.search_construction
    body, expected = noisy_body("ff")
    codec = decoded(body)[0]
    budget = gf2.nbytes(codec) + gf2.nbytes(codec.cons) // 2
    search.cache_clear()
    framing._stream_codec.cache_clear()
    monkeypatch.setattr(gf2, "MEMO_BYTES", budget)
    codec = decoded(body)[0]
    assert search(6, 1, 1, seed=0) is codec.cons
    assert decoded(body)[0] is codec  # the search is now least recent
    assert memo_held_bytes() <= budget
    other = search(6, 1, 1, seed=1)  # evicts the search, then the codec
    assert memo_held_bytes() == gf2.nbytes(*kept_results()) <= budget
    assert kept_codecs() == []
    assert search(6, 1, 1, seed=1) is other
    for seed in range(2, 6):  # streams whose headers differ in their seed
        body, expected = noisy_body("ff", seed=seed)
        assert (decoded(body)[2] == expected).all()
        assert memo_held_bytes() == gf2.nbytes(*kept_results()) <= budget
        assert len(kept_codecs()) <= 1


def test_codec_hit_keeps_its_construction_recent(monkeypatch):
    """A hit on a kept codec refreshes the search entry of the construction
    it holds, so an insert that must evict takes an entry used less
    recently than the codec, not the search, and a direct search with the
    codec's arguments still finds it."""
    search = ff.search_construction
    body, _ = noisy_body("ff")
    small = gf2.nbytes(search(6, 1, 19, seed=0))
    codec = decoded(body)[0]
    budget = gf2.nbytes(codec) + small  # the codec holds its construction
    search.cache_clear()
    framing._stream_codec.cache_clear()
    monkeypatch.setattr(gf2, "MEMO_BYTES", budget)
    cons = search(6, 1, 1, seed=0)
    codec = decoded(body)[0]
    assert codec.cons is cons
    search(6, 1, 19, seed=0)  # the small entry, more recent than the search
    assert decoded(body)[0] is codec
    assert gf2.nbytes(search(6, 1, 19, seed=1)) == small  # evicts one entry
    kept = [key[1:5] for key in gf2._memo
            if key[0] is search.__wrapped__]
    assert kept == [(6, 1, 1, 0), (6, 1, 19, 1)]
    assert kept_codecs() != []
    built = []
    build = ff.build_construction

    def counting(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(ff, "build_construction", counting)
    assert search(6, 1, 1, seed=0) is codec.cons
    assert built == []


def test_eviction_skips_a_table_that_a_kept_codec_holds(monkeypatch):
    """The codec fetches its syndrome table after it is kept, so a hit on
    the codec does not refresh the table's entry.  Evicting that entry
    would free nothing while the codec holds the table, so the insert
    evicts another entry, and the table is found again, not rebuilt."""
    search = ff.search_construction
    body, _ = noisy_body("ff")
    small = gf2.nbytes(search(6, 1, 19, seed=0))
    codec = decoded(body)[0]
    budget = gf2.nbytes(codec) + small
    search.cache_clear()
    framing._stream_codec.cache_clear()
    bch.syndrome_table.cache_clear()
    monkeypatch.setattr(gf2, "MEMO_BYTES", budget)
    search(6, 1, 1, seed=0)
    codec = decoded(body)[0]  # kept, then fetches its table
    search(6, 1, 19, seed=0)
    assert decoded(body)[0] is codec  # the table is now least recent
    search(6, 1, 19, seed=1)  # evicts the small entry, not the table
    assert memo_held_bytes() <= budget
    table = codec.code.bdd_table
    monkeypatch.setattr(bch, "build_syndrome_table", refuse)
    assert bch.syndrome_table(codec.code.m, codec.code.t) is table


def test_memo_counts_a_table_cached_on_a_kept_codec(monkeypatch):
    """The sc codec is kept before its first decode fetches the syndrome
    table.  The memo counts the table the codec holds with the codec, so
    an insert that needs the codec's bytes evicts the codec."""
    body, _ = noisy_body("sc")
    other = gf2.nbytes(ff.search_construction(6, 1, 19))
    ff.search_construction.cache_clear()
    bch.syndrome_table.cache_clear()
    codec = decoded(body)[0]
    assert codec.code.bdd_table is bch.syndrome_table(5, 2)
    budget = gf2.nbytes(codec) + other - 1
    monkeypatch.setattr(gf2, "MEMO_BYTES", budget)
    assert decoded(body)[0] is codec  # the table is now least recent
    ff.search_construction(6, 1, 19)  # evicts the codec, which holds the table
    assert memo_held_bytes() == gf2.nbytes(*kept_results()) <= budget
    assert kept_codecs() == []


@pytest.mark.parametrize("family", CODECS)
def test_kept_codec_is_read_only_and_unchanged_by_decoding(family):
    body, expected = noisy_body(family, seed=1)
    codec = decoded(body)[0]
    assert isinstance(codec.shapes, tuple)
    for compiled in (codec.groups, codec.plan.windows, codec.plan.stacks):
        assert isinstance(compiled, tuple)
        assert all(isinstance(item, tuple) for item in compiled)
    tables = list(codec_arrays(codec))
    assert len(tables) > 4
    assert not any(table.flags.writeable for table in tables)

    def state():
        return [(table.nbytes, hashlib.sha256(table.tobytes()).hexdigest())
                for table in tables]

    before = state()
    for _ in range(2):
        again, frame = framing.read_stream(body)
        received = frame.buf.copy()
        again.decode_frame(frame)
        assert again is codec
        assert (frame.buf != received).any()  # the decoder corrected bits
        assert (codec.extract_payload(frame) == expected).all()
    assert state() == before
    assert codec.seed == 1
