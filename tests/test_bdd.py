"""The batched BDD kernels, syndrome table and Berlekamp-Massey + Chien,
against the scalar oracle in ``reference`` and against each other."""

import functools
import math

import numpy as np
import pytest

import reference
from stairfec import bch
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


def berlekamp_chien_batch(code, words):
    """``decode_batch`` with the flagged words decoded by Berlekamp-Massey."""
    keys = code.syndrome_keys(words)
    flagged = np.flatnonzero(keys.any(axis=1))
    ok = np.ones(len(words), dtype=bool)
    ok[flagged], rows, pos = code.berlekamp_chien(
        flagged, code.key_fields(keys[flagged]))
    return ok, rows, pos


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(batches())
def test_batch_matches_scalar_oracle(batch):
    code, words = batch
    assert code.bdd_table is not None
    for decode in (code.decode_batch,
                   functools.partial(berlekamp_chien_batch, code)):
        ok, rows, pos = decode(words)
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


@pytest.mark.parametrize("reciprocal", [False, True])
@pytest.mark.parametrize("m,t,s", [(6, 3, 5), (5, 2, 4)])
def test_table_and_berlekamp_chien_agree_on_every_syndrome(m, t, s, reciprocal):
    code = component(m, t, s, reciprocal)
    assert code.bdd_table is not None
    q = 1 << m
    every = np.stack(np.meshgrid(*[np.arange(q)] * t, indexing="ij"), axis=-1)
    every = every.reshape(-1, t)[1:]  # nonzero syndromes
    # one-word keys: S_1, S_3, ... m bits apiece, S_1 lowest
    keys = (every @ (1 << m * np.arange(t))).astype(np.uint64)[:, None]
    assert code.key_words == 1
    assert (code.key_fields(keys) == every).all()
    accepted = 0
    for start in range(0, len(every), 8192):  # bounds the Chien search's terms
        synd = every[start : start + 8192]
        rows = start + np.arange(len(synd))
        table = code.decode_syndromes(rows, keys[start : start + 8192])
        chien = code.berlekamp_chien(rows, synd)
        for got, expect in zip(table, chien):
            assert got.shape == expect.shape and (got == expect).all()
        accepted += np.count_nonzero(table[0])
    # every pattern of weight 1..t at the n positions, and nothing else
    assert accepted == sum(math.comb(code.n, w) for w in range(1, t + 1))


def test_code_beyond_the_table_budget_decodes_by_berlekamp_chien(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a syndrome table")

    monkeypatch.setattr(bch, "build_syndrome_table", refuse)
    assert bch.table_bytes(16, 3) > bch.TABLE_BYTES
    code = ComponentCode(16, 3, (1 << 16) - 1 - 120)  # n = 120
    assert code.bdd_table is None
    rng = np.random.default_rng(3)
    words = []
    for weight in range(6):
        word = code.systematic_encode(rng.integers(0, 2, code.k, dtype=np.uint8))
        word[rng.choice(code.n, size=weight, replace=False)] ^= 1
        words.append(word)
    ok, rows, pos = code.decode_batch(np.array(words))
    for w, word in enumerate(words):
        expect_ok, expect_flips = reference.bdd(code, word)
        assert ok[w] == expect_ok
        assert sorted(pos[rows == w].tolist()) == expect_flips
    assert ok[:4].all()


def test_table_holds_every_pattern_once():
    field = bch.GaloisField(5)
    table = bch.build_syndrome_table(field, 2)
    assert (np.diff(table.keys) > 0).all()
    assert table.keys[-1] == np.iinfo(np.int64).max
    # weight 0, then S_1 = 1: {0}, and the pairs {a, b} with
    # alpha^a + alpha^b = 1, each once: (N - 1) / 2 of them
    assert len(table.keys) == 1 + 1 + (field.order - 1) // 2 + 1  # sentinel
    for key, locs in zip(table.keys[:-1], table.locators[:-1]):
        assert (locs[locs < 0] == -field.order).all()  # the pads
        locs = locs[locs >= 0]
        s1, s3 = 0, 0
        for e in locs.tolist():
            s1 ^= field.pow_alpha(e)
            s3 ^= field.pow_alpha(3 * e)
        assert s1 in (0, 1) and key == s1 | s3 << 5


@pytest.mark.parametrize("m,t", [(5, 4), (6, 4), (7, 4), (5, 2), (8, 3)])
def test_table_build_matches_block_by_block_enumeration(m, t):
    field = bch.GaloisField(m)
    table = bch.build_syndrome_table(field, t)
    keys, locators = reference.syndrome_table(field, t)
    assert table.keys.dtype == keys.dtype and (table.keys == keys).all()
    assert table.locators.dtype == locators.dtype
    assert (table.locators == locators).all()


@pytest.mark.parametrize("m,t,s", [(10, 7, 823), (8, 3, 63), (8, 8, 100)])
def test_keys_pack_the_odd_syndromes(m, t, s):
    """Keys hold S_1, S_3, ... m bits apiece, 64 // m fields per uint64,
    however many words that takes: (10, 7) two, (8, 8) all 64 bits of one."""
    code = ComponentCode(m, t, s)
    per_word = 64 // m
    assert code.key_words == -(-t // per_word)
    rng = np.random.default_rng(4)
    words = rng.integers(0, 2, (6, code.n), dtype=np.uint8)
    words[0] = 0
    words[1] = code.systematic_encode(rng.integers(0, 2, code.k,
                                                   dtype=np.uint8))
    keys = code.syndrome_keys(words)
    assert keys.dtype == np.uint64 and keys.shape == (6, code.key_words)
    for word, key, fields in zip(words, keys, code.key_fields(keys)):
        odd = reference.syndromes(code, word)[::2]
        assert fields.tolist() == odd
        expect = [0] * code.key_words
        for j, value in enumerate(odd):
            expect[j // per_word] |= value << (j % per_word * m)
        assert key.tolist() == expect
    assert not keys[:2].any()
    # keys are linear: a unit error's key XORs into the word's
    flipped = words[2].copy()
    flipped[5] ^= 1
    assert (code.syndrome_keys(flipped[None])[0]
            == keys[2] ^ code.column_keys[5]).all()
