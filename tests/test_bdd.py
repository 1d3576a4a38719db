"""The batched BDD kernels, syndrome table and Berlekamp-Massey + Chien,
against the scalar oracle in ``reference`` and against each other."""

import functools
import math

import numpy as np
import pytest

import reference
from reference import pow_alpha
from stairfec import bch, galois
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


def corrections(code, pos):
    """Each row of a position matrix as ``reference.bdd`` gives a word's
    decode: (ok, sorted flips); a row fails where it reads n + 1."""
    return [(False, []) if (row > code.n).any()
            else (True, sorted(row[row < code.n].tolist())) for row in pos]


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(batches())
def test_batch_matches_scalar_oracle(batch):
    code, words = batch
    assert code.bdd_table is not None
    expect = [reference.bdd(code, word) for word in words]
    keys = code.syndrome_keys(words)
    for pos in (code.decode_syndromes(keys),
                code.berlekamp_chien(code.key_fields(keys))):
        assert pos.shape == (len(words), code.t)
        assert corrections(code, pos) == expect


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
        table = code.decode_syndromes(keys[start : start + 8192])
        chien = code.berlekamp_chien(every[start : start + 8192])
        assert table.shape == chien.shape == (len(chien), t)
        # Berlekamp-Massey lists a word's flips in increasing order and
        # fails a word throughout; the table may list them in any order
        failed = (chien > code.n).any(axis=1)
        assert (chien[failed] == code.n + 1).all()
        assert ((table > code.n).any(axis=1) == failed).all()
        assert (np.sort(table[~failed], axis=1) == chien[~failed]).all()
        accepted += np.count_nonzero(~failed)
    # every pattern of weight 1..t at the n positions, and nothing else
    assert accepted == sum(math.comb(code.n, w) for w in range(1, t + 1))


def parent_keys(code, patterns):
    """One-word keys of error patterns of the parent code, each given by
    the degrees of its errors; degrees n..N-1 are the shortened positions."""
    field, sign = code.field, -1 if code.reciprocal else 1
    keys = []
    for degrees in patterns:
        key = 0
        for i, k in enumerate(range(1, 2 * code.t, 2)):
            syndrome = 0
            for degree in degrees:
                syndrome ^= pow_alpha(field, sign * k * degree)
            key |= syndrome << code.m * i
        keys.append(key)
    return np.array(keys, dtype=np.uint64)[:, None]


@pytest.mark.parametrize("reciprocal", [False, True])
@pytest.mark.parametrize("m,t,s", [(6, 3, 5), (5, 2, 4), (8, 3, 63)])
def test_locator_on_a_shortened_position_fails(m, t, s, reciprocal):
    """A pattern of weight <= t of the parent code with an error on a
    shortened position has no codeword of the shortened code within
    distance t: its word fails (n + 1), and the error does not read as an
    unused column (n), which would accept the rest of the pattern."""
    code = component(m, t, s, reciprocal)
    n, order = code.n, code.field.order
    rng = np.random.default_rng(5)
    patterns = [[d] for d in range(n, order)]
    for weight in range(2, t + 1):
        for _ in range(40):
            patterns.append([int(rng.integers(n, order))] + rng.choice(
                n, size=weight - 1, replace=False).tolist())
    keys = parent_keys(code, patterns)
    for pos in (code.decode_syndromes(keys),
                code.berlekamp_chien(code.key_fields(keys))):
        assert (pos == n + 1).any(axis=1).all()
    # the same patterns without the shortened error decode to themselves
    inside = [pattern[1:] for pattern in patterns if len(pattern) > 1]
    pos = np.sort(code.decode_syndromes(parent_keys(code, inside)), axis=1)
    for row, pattern in zip(pos, inside):
        assert row[row < n].tolist() == sorted(n - 1 - d for d in pattern)


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
    pos = code.decode_syndromes(code.syndrome_keys(np.array(words)))
    result = corrections(code, pos)
    assert result == [reference.bdd(code, word) for word in words]
    assert all(ok for ok, _ in result[:4])


def test_table_holds_every_pattern_once():
    field = galois.field(5)
    order = field.order
    table = bch.build_syndrome_table(field, 2)
    assert table.shape == (2 << 5, 2) and not table.flags.writeable
    held = np.flatnonzero(table[:, 0] != 3 * order)  # the rest fail
    assert (np.delete(table, held, axis=0) == 3 * order).all()
    # weight 0, then S_1 = 1: {0}, and the pairs {a, b} with
    # alpha^a + alpha^b = 1, each once: (N - 1) / 2 of them
    assert len(held) == 1 + 1 + (order - 1) // 2
    for row in held:
        locs = table[row]
        assert (locs[locs >= order] == 2 * order).all()  # the pads
        s1, s3 = 0, 0
        for e in locs[locs < order].tolist():
            s1 ^= pow_alpha(field, e)
            s3 ^= pow_alpha(field, 3 * e)
        assert s1 in (0, 1) and row == s1 | s3 << 1


@pytest.mark.parametrize("m,t", [(5, 4), (6, 4), (7, 4), (5, 2), (8, 3),
                                 # k = 1 in 16 blocks, up to k = 5, k = 0 alone
                                 (16, 2), (4, 6), (2, 1)])
def test_table_build_matches_block_by_block_enumeration(m, t):
    field = galois.field(m)
    table = bch.build_syndrome_table(field, t)
    expect = reference.syndrome_table(field, t)
    assert table.dtype == expect.dtype and (table == expect).all()


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
