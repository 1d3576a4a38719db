"""The memos: a process searches each FF/PFF code once and builds each
syndrome table once.

``ff.search_construction`` and ``pff.search_pff_construction`` keep their
results by ``(m, t, s, seed, max_tries)``, ``bch.syndrome_table`` by
``(poly, t)``, each within ``gf2.MEMO_BYTES``.
"""

import numpy as np
import pytest

from stairfec import bch, ff, framing, gf2, pff, sim

# search, module, the candidate builder it calls, a small code
SEARCHES = {
    "ff": (ff.search_construction, ff, "build_construction", (4, 1, 1)),
    "pff": (pff.search_pff_construction, pff, "build_pff_construction",
            (6, 1, 1)),
}


@pytest.fixture(autouse=True)
def cold_memo():
    for search, *_ in SEARCHES.values():
        search.cache_clear()


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
    assert search(*code, seed=0, max_tries=200) is first


@pytest.mark.parametrize("family", SEARCHES)
def test_other_seed_or_max_tries_searches_again(monkeypatch, family):
    search, _, _, code = SEARCHES[family]
    first = search(*code, seed=0)
    calls = []
    invert = gf2.invert

    def counting(a):
        calls.append(a.shape)
        return invert(a)

    monkeypatch.setattr(gf2, "invert", counting)
    assert search(*code, seed=1) is not first
    searched = len(calls)
    assert searched > 0
    assert search(*code, seed=0, max_tries=199) is not first
    assert len(calls) > searched


@pytest.mark.parametrize("family", SEARCHES)
def test_failed_search_is_repeated_on_every_call(monkeypatch, family):
    search, module, builder, code = SEARCHES[family]
    calls = []

    def singular(*args, **kwargs):
        calls.append(args)
        raise gf2.SingularMatrixError("singular")

    monkeypatch.setattr(module, builder, singular)
    tried = []
    for _ in range(2):
        with pytest.raises(gf2.SingularMatrixError):
            search(*code, max_tries=2)
        tried.append(len(calls))
    assert tried[0] > 0 and tried[1] == 2 * tried[0]


def test_budget_evicts_least_recently_used_and_skips_oversize(monkeypatch):
    search = ff.search_construction
    size = gf2.nbytes(search(4, 1, 1, seed=0))
    assert size > 0
    search.cache_clear()
    monkeypatch.setattr(gf2, "MEMO_BYTES", 2 * size)
    a = search(4, 1, 1, seed=0)
    b = search(4, 1, 1, seed=1)
    assert search(4, 1, 1, seed=0) is a  # b is now the least recently used
    c = search(4, 1, 1, seed=2)
    assert search(4, 1, 1, seed=0) is a
    assert search(4, 1, 1, seed=2) is c
    assert search(4, 1, 1, seed=1) is not b

    search.cache_clear()
    monkeypatch.setattr(gf2, "MEMO_BYTES", size - 1)
    big = search(4, 1, 1, seed=0)
    assert search(4, 1, 1, seed=0) is not big


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
        dec_codec, received = framing.read_stream(body)
        dec_codec.decode_frame(received)
        return dec_codec.code.bdd_table, dec_codec.extract_payload(received)

    table, first = decode()
    monkeypatch.setattr(bch, "build_syndrome_table", refuse)
    again, second = decode()
    assert again is table is codec.code.bdd_table
    assert (first == second).all() and (first == payload).all()
