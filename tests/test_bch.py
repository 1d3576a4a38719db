import numpy as np
import pytest

import reference
from stairfec.bch import ComponentCode, bch_generator, reciprocal_generator
from stairfec.ff import search_construction
from stairfec.galois import GaloisField, Poly2, poly_mod


def bits_to_poly_int(word):
    """word[i] is the coefficient of x^(n-1-i)."""
    n = len(word)
    val = 0
    for i, b in enumerate(word):
        if b:
            val |= 1 << (n - 1 - i)
    return val


def test_generator_m4_t2():
    f = GaloisField(4)
    g = bch_generator(f, 2)
    # the (15, 7) double-error-correcting code
    assert g.bits == 0b111010001
    assert g.degree == 8


def test_generator_degree_is_mt():
    for m, t in [(4, 1), (5, 2), (6, 3), (8, 3)]:
        f = GaloisField(m)
        assert bch_generator(f, t).degree == m * t


def test_generator_roots():
    f = GaloisField(6)
    g = bch_generator(f, 2)
    for i in range(1, 5):
        assert f.eval_poly2(g, f.pow_alpha(i)) == 0


def test_reciprocal_generator_roots():
    f = GaloisField(5)
    g = bch_generator(f, 2)
    rg = reciprocal_generator(g)
    for i in range(1, 5):
        assert f.eval_poly2(rg, f.pow_alpha(-i)) == 0
    with pytest.raises(ValueError):
        reciprocal_generator(Poly2(0b10))


def test_systematic_encode_matches_long_division():
    code = ComponentCode(5, 2, 4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        msg = rng.integers(0, 2, code.k, dtype=np.uint8)
        word = code.systematic_encode(msg)
        assert (word[: code.k] == msg).all()
        # independent parity: x^r * m(x) mod g(x)
        m_int = bits_to_poly_int(msg)
        parity_int = poly_mod(m_int << code.r, code.gen.bits)
        expect = [(parity_int >> (code.r - 1 - l)) & 1 for l in range(code.r)]
        assert (word[code.k :] == expect).all()
        # codeword polynomial divisible by generator
        assert poly_mod(bits_to_poly_int(word), code.gen.bits) == 0


def test_encode_zero_syndrome():
    for reciprocal in (False, True):
        code = ComponentCode(6, 2, 5, reciprocal=reciprocal)
        rng = np.random.default_rng(1)
        msg = rng.integers(0, 2, code.k, dtype=np.uint8)
        word = code.systematic_encode(msg)
        assert not any(reference.syndromes(code, word))


def test_decode_corrects_up_to_t():
    rng = np.random.default_rng(2)
    for reciprocal in (False, True):
        code = ComponentCode(6, 3, 5, reciprocal=reciprocal)
        for _ in range(40):
            msg = rng.integers(0, 2, code.k, dtype=np.uint8)
            word = code.systematic_encode(msg)
            n_err = int(rng.integers(0, code.t + 1))
            pos = rng.choice(code.n, size=n_err, replace=False)
            bad = word.copy()
            bad[pos] ^= 1
            res = code.decode(bad)
            assert res.ok
            assert (res.word == word).all()
            assert sorted(res.flips) == sorted(int(p) for p in pos)


def test_decode_beyond_t_fails_or_miscorrects_within_t():
    code = ComponentCode(5, 1, 2)
    rng = np.random.default_rng(3)
    fails = miscorrections = 0
    for _ in range(60):
        msg = rng.integers(0, 2, code.k, dtype=np.uint8)
        word = code.systematic_encode(msg)
        pos = rng.choice(code.n, size=code.t + 1, replace=False)
        bad = word.copy()
        bad[pos] ^= 1
        res = code.decode(bad)
        if not res.ok:
            fails += 1
            assert (res.word == bad).all()
        else:
            miscorrections += 1
            assert len(res.flips) <= code.t
            # the output is a codeword either way
            assert not any(reference.syndromes(code, res.word))
    assert fails > 0  # t+1 errors are usually detected for t=1


def test_shortened_positions_behave_like_parent_prefix():
    # shortening drops leading information positions: a shortened codeword
    # padded with s zeros is a parent codeword
    parent = ComponentCode(6, 2, 0)
    short = ComponentCode(6, 2, 10, field=parent.field)
    rng = np.random.default_rng(4)
    msg = rng.integers(0, 2, short.k, dtype=np.uint8)
    word = short.systematic_encode(msg)
    padded = np.concatenate([np.zeros(10, dtype=np.uint8), word])
    assert not any(reference.syndromes(parent, padded))


def test_words_with_errors_matches_syndromes():
    code = ComponentCode(6, 2, 3)
    rng = np.random.default_rng(5)
    words = []
    expect = []
    for _ in range(30):
        msg = rng.integers(0, 2, code.k, dtype=np.uint8)
        w = code.systematic_encode(msg)
        if rng.random() < 0.5:
            w = w.copy()
            w[rng.integers(0, code.n)] ^= 1
        words.append(w)
        expect.append(any(reference.syndromes(code, w)))
    mask = code.words_with_errors(np.array(words))
    assert (mask == np.array(expect)).all()


def test_words_with_errors_pad():
    code = ComponentCode(6, 2, 3)
    rng = np.random.default_rng(6)
    msg = rng.integers(0, 2, code.k, dtype=np.uint8)
    msg[:4] = 0
    w = code.systematic_encode(msg)
    # a word read with its leading positions from known zeros
    padded = np.concatenate([np.zeros(4, dtype=np.uint8), w[4:]])[None, :]
    assert not code.words_with_errors(padded).any()
    bad = padded.copy()
    bad[0, 4] ^= 1
    assert code.words_with_errors(bad).all()


def test_mirror_property_row_column():
    # reversing a row codeword yields a column (reciprocal) codeword
    row = ComponentCode(5, 2, 4, role="row")
    col = ComponentCode(5, 2, 4, role="col", reciprocal=True, field=row.field)
    rng = np.random.default_rng(7)
    for _ in range(10):
        msg = rng.integers(0, 2, row.k, dtype=np.uint8)
        word = row.systematic_encode(msg)
        assert not any(reference.syndromes(col, word[::-1]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        ComponentCode(4, 1, 11)  # no information bits left
    with pytest.raises(ValueError):
        ComponentCode(4, 1, -1)
    with pytest.raises(ValueError):
        ComponentCode(4, 7, 0)  # generator degree falls short of m*t


def test_parity_partition_shapes():
    cons = search_construction(7, 2, 27)
    for code, g_i, g_r in [(cons.code_row, cons.g_i, cons.g_r),
                           (cons.code_col, cons.f_i, cons.f_r)]:
        assert g_i.shape == (code.k - code.r, code.r)
        assert g_r.shape == (code.r, code.r)
        assert (np.vstack([g_i, g_r]) == code.g_p).all()


def test_decode_word_length_check():
    code = ComponentCode(4, 1, 1)
    with pytest.raises(ValueError):
        code.decode(np.zeros(5, dtype=np.uint8))
