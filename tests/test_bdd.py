"""The batched BDD kernel against the scalar oracle in ``reference``."""

import functools

import numpy as np
import pytest

import reference
from stairfec.bch import ComponentCode

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# (m, t, s): the table codes and small ones with t = 1 and t = 2
CODES = [(8, 3, 63), (8, 3, 15), (4, 1, 1), (5, 2, 4), (7, 2, 27)]


@functools.cache
def component(m, t, s, reciprocal):
    return ComponentCode(m, t, s, reciprocal=reciprocal)


@st.composite
def batches(draw):
    """A code and a batch of received words: codewords with 0..t+3 errors,
    plus one uniformly random word, far from every codeword."""
    m, t, s = draw(st.sampled_from(CODES))
    code = component(m, t, s, draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = [rng.integers(0, 2, code.n, dtype=np.uint8)]
    errors = st.lists(st.integers(0, code.n - 1), max_size=t + 3, unique=True)
    for pos in draw(st.lists(errors, min_size=1, max_size=6)):
        msg = rng.integers(0, 2, code.k, dtype=np.uint8)
        word = code.systematic_encode(msg)
        word[pos] ^= 1
        words.append(word)
    return code, np.array(words)


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(batches())
def test_batch_matches_scalar_oracle(batch):
    code, words = batch
    ok, rows, pos = code.decode_batch(words)
    assert ok.shape == (len(words),)
    for w, word in enumerate(words):
        expect_ok, expect_flips = reference.bdd(code, word)
        assert ok[w] == expect_ok
        assert sorted(pos[rows == w].tolist()) == expect_flips


@pytest.mark.parametrize("reciprocal", [False, True])
def test_single_word_decode_matches_oracle(reciprocal):
    code = component(5, 2, 4, reciprocal)
    rng = np.random.default_rng(8)
    for _ in range(30):
        word = code.systematic_encode(rng.integers(0, 2, code.k, dtype=np.uint8))
        word[rng.choice(code.n, size=int(rng.integers(0, 5)), replace=False)] ^= 1
        res = code.decode(word)
        expect_ok, expect_flips = reference.bdd(code, word)
        assert res.ok == expect_ok
        assert sorted(res.flips) == expect_flips
        fixed = word.copy()
        fixed[expect_flips] ^= 1
        assert (res.word == fixed).all()
