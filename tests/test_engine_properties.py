"""The syndrome-domain decoder against the word-by-word loop in ``reference``,
and decoding a received frame against decoding its error pattern alone."""

import numpy as np
import pytest

import reference
from stairfec import engine
from stairfec.sim import bsc_corrupt, build_codec, run_frames

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# small codes of every family, with pff's S[i,i] listed twice in one word
CODECS = [
    ("sc", 5, 2, 1, dict(length=6, window=4, l_max=6)),
    ("ff", 7, 2, 27, dict(length=6, window=5, l_max=6)),
    ("pff", 7, 2, 41, dict(L=1, length=4, window=6, l_max=6)),
    ("pff", 7, 2, 41, dict(L=2, length=3, window=6, l_max=6)),
]


@hypothesis.settings(deadline=None, max_examples=25)
@hypothesis.given(case=st.sampled_from(CODECS),
                  p=st.sampled_from([0.005, 0.02, 0.05, 0.1]),
                  seed=st.integers(0, 2**32 - 1))
def test_kept_syndromes_and_result_match_word_by_word_loop(case, p, seed):
    family, m, t, s, kwargs = case
    codec = build_codec(family, m, t, s, **kwargs)
    rng = np.random.default_rng(seed)
    frame = codec.encode_payload(
        rng.integers(0, 2, codec.payload_bits, dtype=np.uint8))
    bsc_corrupt(codec, frame, p, rng)

    expect = frame.buf.copy()
    schedule = [[(code, words[:, : code.n]) for code, words, _ in window]
                for window in codec.plan.windows]
    expect_sweeps = reference.decode_one_at_a_time(expect, schedule,
                                                   codec.l_max)
    sweeps, keys = engine.decode(frame.buf, codec.plan, codec.l_max)
    assert (frame.buf == expect).all()
    assert sweeps == expect_sweeps
    # the kept keys equal a fresh computation; the last row is scratch
    assert (keys[:-1] == codec.plan.syndromes(frame.buf)[:-1]).all()


@pytest.mark.parametrize("p", [0.02, 0.04])
def test_two_word_keys_match_word_by_word_loop(p):
    """sc(10,7,823): t*m = 70 bits, so a key takes two uint64 words and the
    code decodes by Berlekamp-Massey."""
    codec = build_codec("sc", 10, 7, 823, length=3, window=3, l_max=4)
    assert codec.plan.width == codec.code.key_words == 2
    assert codec.code.bdd_table is None
    rng = np.random.default_rng(0)
    frame = codec.encode_payload(
        rng.integers(0, 2, codec.payload_bits, dtype=np.uint8))
    bsc_corrupt(codec, frame, p, rng)

    expect = frame.buf.copy()
    schedule = [[(code, words[:, : code.n]) for code, words, _ in window]
                for window in codec.plan.windows]
    expect_sweeps = reference.decode_one_at_a_time(expect, schedule,
                                                   codec.l_max)
    sweeps, keys = engine.decode(frame.buf, codec.plan, codec.l_max)
    assert (frame.buf == expect).all()
    assert sweeps == expect_sweeps
    assert (keys[:-1] == codec.plan.syndromes(frame.buf)[:-1]).all()
    if p > 0.03:
        # words left uncorrected, some with syndromes in the second word
        assert keys[:-1, 1].any()


def check_flip_table(codec):
    """The flip table lists every slot's holders, (word, key of a unit error
    at its position), as the word tables give them, and the zero slot's
    entries are all scratch; returns the holders."""
    plan = codec.plan
    zero = codec.n_tx
    width = plan.width
    hkeys = plan.hkeys.reshape(-1)
    holders = {}
    for code, table, first in plan.stacks:
        for w, word in enumerate(table[:, : code.n]):
            for pos, slot in enumerate(word.tolist()):
                if slot != zero:
                    holders.setdefault(slot, []).append(
                        (first + w, tuple(code.column_keys[pos].tolist())))
    for slot in holders:
        # each holder's cells, one per key word, in word order
        cells = plan.flip_cells[:, slot].reshape(width, -1).T
        keys = plan.flip_keys[:, slot].reshape(width, -1).T
        listed = []
        for cell, key in zip(cells, keys):
            w = int(cell[0]) // width
            assert (cell == w * width + np.arange(width)).all()
            if w < plan.n_words:
                listed.append((w, tuple(hkeys[key].tolist())))
        assert sorted(listed) == sorted(holders[slot])
    assert (plan.flip_cells[:, zero] // width == plan.n_words).all()
    return holders


def test_flip_table_lists_every_holder_of_a_slot():
    codec = build_codec(*CODECS[3][:4], **CODECS[3][4])
    holders = check_flip_table(codec)
    # S[i,i] of S's bottom 2r rows sits twice in row word i of S
    assert any(len({w for w, _ in v}) < len(v) for v in holders.values())


def test_two_word_flip_table_lists_every_holder_of_a_slot():
    codec = build_codec("sc", 10, 7, 823, length=2, window=2, l_max=2)
    assert codec.plan.width == 2
    check_flip_table(codec)


@pytest.mark.parametrize("case", CODECS + [
    ("sc", 10, 7, 823, dict(length=2, window=2, l_max=2))])
def test_error_keys_match_dense_syndromes(case):
    family, m, t, s, kwargs = case
    codec = build_codec(family, m, t, s, **kwargs)
    plan = codec.plan
    # the slots that one word lists at two of its positions
    twice = sorted(slot for slot, held in check_flip_table(codec).items()
                   if len({w for w, _ in held}) < len(held))
    # pff's S[i,i] sits twice in row word i of S; sc and ff list no slot twice
    assert bool(twice) == (family == "pff")
    rng = np.random.default_rng(1)
    for weight in (0, 1, 2, 7, 60):
        for _ in range(4):
            slots = rng.choice(codec.n_tx, size=weight, replace=False)
            if twice:
                slots = np.union1d(slots, rng.choice(twice, size=2,
                                                     replace=False))
            buf = np.zeros(codec.n_tx + 1, dtype=np.uint8)
            buf[slots] = 1
            keys = plan.error_keys(slots)
            assert keys.shape == (plan.n_words + 1, plan.width)
            assert (keys[:-1] == plan.syndromes(buf)[:-1]).all()


@hypothesis.settings(deadline=None, max_examples=25)
@hypothesis.given(case=st.sampled_from(CODECS),
                  p=st.sampled_from([0.005, 0.02, 0.05, 0.1]),
                  seed=st.integers(0, 2**32 - 1))
def test_received_frame_decodes_as_its_error_pattern(case, p, seed):
    """Decoding c + e from its dense keys flips what decoding e alone from
    its scatter keys flips: the decoder reads a buffer only through its
    keys, and a codeword's keys are zero."""
    family, m, t, s, kwargs = case
    codec = build_codec(family, m, t, s, **kwargs)
    rng = np.random.default_rng(seed)
    frame = codec.encode_payload(
        rng.integers(0, 2, codec.payload_bits, dtype=np.uint8))
    sent = frame.buf.copy()
    bsc_corrupt(codec, frame, p, rng)
    error = frame.buf ^ sent

    sweeps, keys = engine.decode(frame.buf, codec.plan, codec.l_max)
    e_sweeps, e_keys = engine.decode(
        error, codec.plan, codec.l_max,
        keys=codec.plan.error_keys(error.nonzero()[0]))
    assert (frame.buf == sent ^ error).all()
    assert sweeps == e_sweeps
    assert (keys[:-1] == e_keys[:-1]).all()


TABLE = {
    "sc": ("sc", 8, 3, 63, dict(length=8)),
    "ff": ("ff", 8, 3, 63, dict(length=8)),
    "pff": ("pff", 8, 3, 15, dict(L=2, length=3)),
}


@pytest.mark.parametrize("p", [0.016, 0.001])
@pytest.mark.parametrize("name", sorted(TABLE))
def test_run_frames_matches_encode_corrupt_decode_loop(name, p):
    family, m, t, s, kwargs = TABLE[name]
    codec = build_codec(family, m, t, s, **kwargs)
    frames = range(4)
    counters = run_frames(codec, p, 9, frames)
    assert counters == reference.run_frames(codec, p, 9, frames)
    if p > 0.01:
        assert counters[2] > 0  # the channel beat the decoder somewhere
