import hashlib

import numpy as np
import pytest

import reference
from reference import poly_eval, poly_mod, pow_alpha
from stairfec.bch import ComponentCode, bch_generator, code_pair
from stairfec.ff import search_construction
from stairfec.galois import GaloisField

# (m, t) with m = 2..16, t = 1..8 and m*t < 2^m - 1: 100 pairs
GRID = [(m, t) for m in range(2, 17) for t in range(1, 9)
        if m * t < (1 << m) - 1]
# the pairs of GRID whose generator has degree below m*t
SHORT = [(4, 3), (5, 5), (5, 6), (6, 5), (6, 6), (6, 7), (6, 8)]
# SHA-256 of the lines "m,t,hex(g)" of GRID, joined by newlines, as the
# LCM of the minimal polynomials of alpha^1..alpha^2t gave them
GRID_SHA256 = "a32a15ea4269d04a4f4bf3f60398506c380ef83688ff0e8c5837218a43efbdd0"


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
    assert g == 0b111010001
    with pytest.raises(ValueError):
        bch_generator(f, 0)


def test_generator_grid_is_pinned():
    lines = []
    for m, t in GRID:
        lines.append(f"{m},{t},{hex(bch_generator(GaloisField(m), t))}")
    assert len(lines) == 100
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GRID_SHA256
    for m, t in SHORT:
        with pytest.raises(ValueError, match="primitive-BCH family"):
            ComponentCode(m, t, 0)


def test_generator_degree_is_mt():
    for m, t in [(4, 1), (5, 2), (6, 3), (8, 3)]:
        f = GaloisField(m)
        assert bch_generator(f, t).bit_length() - 1 == m * t


def test_generator_roots():
    """g vanishes at alpha^1..alpha^2t, has degree mt and divides
    x^N - 1; the reversed generator of a column code vanishes at
    alpha^-1..alpha^-2t."""
    for m, t in [(4, 2), (5, 3), (6, 2), (8, 3), (10, 3)]:
        row, col = code_pair(m, t, 0)
        f, order = row.field, row.field.order
        for code, sign in ((row, 1), (col, -1)):
            assert code.gen.bit_length() - 1 == m * t
            assert code.gen & 1
            for i in range(1, 2 * t + 1):
                assert poly_eval(f, code.gen, pow_alpha(f, sign * i)) == 0
            assert poly_mod(1 << order | 1, code.gen) == 0
        assert col.gen == int(f"{row.gen:b}"[::-1], 2)


def test_reciprocal_generator_roots():
    f = GaloisField(5)
    g = ComponentCode(5, 2, 0, reciprocal=True).gen
    for i in range(1, 5):
        assert poly_eval(f, g, pow_alpha(f, -i)) == 0
    # a root of the row generator's is a root of the column generator's
    # only where its exponent and its negation share a coset
    assert poly_eval(f, g, pow_alpha(f, 1)) != 0


def test_systematic_encode_matches_long_division():
    code = ComponentCode(5, 2, 4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        msg = rng.integers(0, 2, code.k, dtype=np.uint8)
        word = code.systematic_encode(msg)
        assert (word[: code.k] == msg).all()
        # independent parity: x^r * m(x) mod g(x)
        m_int = bits_to_poly_int(msg)
        parity_int = poly_mod(m_int << code.r, code.gen)
        expect = [(parity_int >> (code.r - 1 - l)) & 1 for l in range(code.r)]
        assert (word[code.k :] == expect).all()
        # codeword polynomial divisible by generator
        assert poly_mod(bits_to_poly_int(word), code.gen) == 0


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
    short = ComponentCode(6, 2, 10)
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
    row, col = code_pair(5, 2, 4)
    assert row.field is col.field
    rng = np.random.default_rng(7)
    for _ in range(10):
        msg = rng.integers(0, 2, row.k, dtype=np.uint8)
        word = row.systematic_encode(msg)
        assert not any(reference.syndromes(col, word[::-1]))


def test_role_follows_reciprocal():
    row, col = code_pair(5, 2, 4)
    assert (row.role, row.reciprocal) == ("row", False)
    assert (col.role, col.reciprocal) == ("col", True)
    # the descriptors as the generators' LCM construction printed them
    assert row.descriptor() == {
        "m": 5, "t": 2, "s": 4, "role": "row", "reciprocal": False,
        "primitive_poly": "0x25", "generator": "0x769",
    }
    assert col.descriptor() == {
        "m": 5, "t": 2, "s": 4, "role": "col", "reciprocal": True,
        "primitive_poly": "0x25", "generator": "0x4b7",
    }
    assert repr(col) == "ComponentCode(m=5, t=2, s=4, n=27, k=17, role='col')"
    with pytest.raises(TypeError):
        ComponentCode(5, 2, 4, role="col")


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
