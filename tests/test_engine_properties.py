"""The syndrome-domain decoder against the word-by-word loop in ``reference``."""

import numpy as np
import pytest

import reference
from stairfec import engine
from stairfec.sim import bsc_corrupt, build_codec

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
    schedule = [[(code, words) for code, words, _ in window]
                for window in codec.plan.windows]
    expect_sweeps = reference.decode_one_at_a_time(expect, schedule,
                                                   codec.l_max)
    sweeps, synd = engine.decode(frame.buf, codec.plan, codec.l_max)
    assert (frame.buf == expect).all()
    assert sweeps == expect_sweeps
    # the kept syndromes equal a fresh computation; the last row is scratch
    assert (synd[:-1] == codec.plan.syndromes(frame.buf)[:-1]).all()


def test_flip_table_lists_every_holder_of_a_slot():
    codec = build_codec(*CODECS[3][:4], **CODECS[3][4])
    plan = codec.plan
    zero = codec.n_tx
    holders = {}
    for code, table, first in plan.stacks:
        for w, word in enumerate(table):
            for pos, slot in enumerate(word.tolist()):
                if slot != zero:
                    holders.setdefault(slot, []).append(
                        (first + w, tuple(code.odd_columns[pos].tolist())))
    for slot, expect in holders.items():
        got = [(int(w), tuple(plan.hcols[key, : codec.cons.code_row.t].tolist()))
               for w, key in zip(plan.flip_words[:, slot],
                                 plan.flip_keys[:, slot])
               if w < plan.n_words]
        assert sorted(got) == sorted(expect)
    # S[i,i] of S's bottom 2r rows sits twice in row word i of S
    assert any(len({w for w, _ in v}) < len(v) for v in holders.values())
    assert (plan.flip_words[:, zero] == plan.n_words).all()
