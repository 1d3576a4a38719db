"""The construction searches decide each candidate on a small exact system:
ff on A(z) reduced modulo z^M' - 1 (``ff.fold_ring``), whose inverse it
lifts to A^-1 (``ff.lift_inverse``), so ff builds and inverts no Mr x Mr
system; pff on the r^2 x r^2 system through which it solves the stage-2
system B (``pff.reduced_b_matrix``), so pff builds no B at all.  ff builds
A(z) straight from the shifts (``ff.build_a_ring``), which must be the first
block row of the dense A that ``reference.build_a_matrix`` builds from the
permutations.  Each decision must be the one that inverting the full system
gives, and each lifted inverse the dense one, so the searches pick the
constructions they picked by inverting every candidate.
"""

import hashlib
import itertools

import numpy as np
import pytest

from reference import build_a_matrix, build_b_matrix, ring_form, search_dense
from stairfec import ff, gf2, pff
from stairfec.bch import code_pair


def invertible(a):
    try:
        gf2.invert(a)
    except gf2.SingularMatrixError:
        return False
    return True


def ff_systems(m, t, s, seed, tries, count=None):
    """(mode, A(z), dense A, M, r) of the first ``count`` candidates of ff's
    search, A(z) built from the shifts and A from their permutations."""
    row, col = code_pair(m, t, s)
    m_side, r = (row.k - row.r) // 2, row.r
    g_r, f_r = row.g_p[2 * m_side :], col.g_p[2 * m_side :]
    candidates = ff._candidates(m_side, r, np.random.default_rng(seed), tries)
    for mode, (s1, s2) in itertools.islice(candidates, count):
        dense = build_a_matrix(m_side, r, g_r, f_r,
                               ff.shifted_block_indices(s1, m_side),
                               ff.shifted_block_indices(s2, m_side))
        yield (mode, ff.build_a_ring(m_side, r, g_r, f_r, s1, s2), dense,
               m_side, r)


def pff_systems(m, t, s, seed, tries, count=None):
    """(A_s, G_B~, F_r) of the first ``count`` candidates of pff's search."""
    row, col = code_pair(m, t, s)
    m_side, r = (row.k - row.r) // 2, row.r
    g_i, g_r = row.g_p[: 2 * m_side], row.g_p[2 * m_side :]
    f_r = col.g_p[2 * m_side :]
    a_small = g_r.T ^ f_r.T
    assert invertible(a_small)
    candidates = pff._candidates(r, np.random.default_rng(seed), tries)
    for _, pi in itertools.islice(candidates, count):
        yield a_small, g_i[m_side - 2 * r : m_side][pi], f_r


# (m, t, s), seeds, tries per mode, candidates taken: M = 16, 36 and 72
FF_CODES = [((6, 1, 19), (0, 1), 4, None), ((7, 2, 27), (0, 1, 2), 4, None),
            ((8, 3, 63), (0,), 4, 4)]
# one code per number e of lift steps, M = 2^e M': M = 13, 14, 20, 24, 16,
# 32 and 64
LIFT_CODES = [(6, 1, 25), (6, 1, 23), (6, 1, 11), (6, 1, 3), (6, 1, 19),
              (7, 1, 49), (8, 1, 111)]


@pytest.mark.parametrize("code, seeds, tries, count",
                         FF_CODES + [(code, (0,), 3, None)
                                     for code in LIFT_CODES])
def test_ring_built_a_is_the_dense_a(code, seeds, tries, count):
    """A(z) from the shifts is the first block row of the dense A, and A is
    the block circulant of it, on every candidate, odd M and M = 2^e
    included."""
    for seed in seeds:
        for mode, a_ring, a, m_side, r in ff_systems(*code, seed, tries,
                                                     count):
            assert a_ring.shape == (m_side, r, r)
            assert np.array_equal(a_ring, ring_form(a, m_side, r))
            assert np.array_equal(ff.expand_ring(a_ring), a), (code, mode)


@pytest.mark.parametrize("code, seeds, tries, count", FF_CODES)
def test_fold_decides_like_the_dense_inversion(code, seeds, tries, count):
    decided = []
    for seed in seeds:
        for mode, a_ring, a, m_side, r in ff_systems(*code, seed, tries,
                                                     count):
            folded = ff.expand_ring(ff.fold_ring(a_ring))
            odd = m_side // (m_side & -m_side)
            assert folded.shape == (odd * r, odd * r)
            decided.append(invertible(folded))
            assert decided[-1] == invertible(a), (code, seed, mode)
    # singular ones included, bar ff(6,1,19), where M' = 1 and the draws
    # give none
    assert True in decided and (False in decided or code == (6, 1, 19))


def test_fold_of_odd_m_is_a_itself():
    # ff(6,1,1): M = 25 = M', so the search lifts in no steps
    for _, a_ring, a, m_side, r in ff_systems(6, 1, 1, 0, 2):
        assert np.array_equal(ff.fold_ring(a_ring), a_ring)
        assert np.array_equal(ff.expand_ring(ff.fold_ring(a_ring)), a)


@pytest.mark.parametrize("code", LIFT_CODES)
def test_lifted_inverse_is_the_dense_inverse(code):
    """Every candidate that passes has the inverse that inverting A gives,
    expanded from its ring form."""
    row, col = code_pair(*code)
    m_side, r = (row.k - row.r) // 2, row.r
    lifted = 0
    for mode, (s1, s2) in ff._candidates(m_side, r,
                                         np.random.default_rng(0), 3):
        a = build_a_matrix(m_side, r, row.g_p[2 * m_side :],
                           col.g_p[2 * m_side :],
                           ff.shifted_block_indices(s1, m_side),
                           ff.shifted_block_indices(s2, m_side))
        try:
            cons = ff.build_construction(row, col, s1, s2, mode)
        except gf2.SingularMatrixError:
            assert not invertible(a)
            continue
        assert np.array_equal(ff.expand_ring(cons.a_inv_ring),
                              gf2.invert(a))
        lifted += 1
    assert lifted


@pytest.mark.parametrize("code", LIFT_CODES)
def test_ring_product_by_a_inv_is_the_dense_product(code):
    """The encoder's product by A^-1, one convolution with its ring form, is
    the product by the dense A^-1: for one vector, a stack along two leading
    axes, and the zero and all-ones vectors (the ones give the largest sums
    before rounding)."""
    cons = ff.search_construction(*code)
    a_inv = ff.expand_ring(cons.a_inv_ring)
    n = len(a_inv)
    rng = np.random.default_rng(n)
    for v in (rng.integers(0, 2, n, dtype=np.uint8),
              rng.integers(0, 2, (2, 3, n), dtype=np.uint8),
              np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8)):
        expected = gf2.mat_mul(a_inv, v.reshape(-1, n).T).T.reshape(v.shape)
        y = cons.solve(v)
        assert y.dtype == np.uint8 and y.shape == v.shape
        assert np.array_equal(y, expected), v.shape


def test_lift_check_fails_on_every_flipped_bit():
    # ff(6,1,19): M = 16, r = 6; an inverse of full length lifts in no
    # steps, so lift_inverse only checks it
    cons = ff.search_construction(6, 1, 19)
    a_ring = ff.build_a_ring(cons.m_side, cons.r, cons.g_r, cons.f_r,
                             cons.s1, cons.s2)
    x = cons.a_inv_ring
    assert np.array_equal(ff.lift_inverse(a_ring, x), x)
    for i in np.ndindex(x.shape):
        flipped = x.copy()
        flipped[i] ^= 1
        with pytest.raises(ValueError, match="fails A"):
            ff.lift_inverse(a_ring, flipped)


def test_ring_form_and_expansion_are_inverse():
    rng = np.random.default_rng(9)
    x = rng.integers(0, 2, (5, 3, 3), dtype=np.uint8)
    y = rng.integers(0, 2, (5, 3, 3), dtype=np.uint8)
    dense = ff.expand_ring(x)
    assert np.array_equal(ring_form(dense, 5, 3), x)
    # the ring product is the product of the block circulants
    assert np.array_equal(ff.expand_ring(ff.ring_product(x, y)),
                          gf2.mat_mul(dense, ff.expand_ring(y)))


@pytest.mark.parametrize("m_side", [1, 2, 5, 8])
def test_ring_apply_is_the_cyclic_convolution(m_side):
    """``ring_apply`` of X's spectrum and an M x r x c array Y is the sum of
    X_i Y_j over i + j = k mod M in coefficient k, for odd and even M, and
    for all-ones factors, whose sums before rounding are the largest."""
    rng = np.random.default_rng(m_side)
    x = rng.integers(0, 2, (m_side, 3, 3), dtype=np.uint8)
    y = rng.integers(0, 2, (m_side, 3, 4), dtype=np.uint8)
    for x, y in ((x, y), (np.ones_like(x), np.ones_like(y))):
        expected = np.zeros_like(y)
        for i, j in itertools.product(range(m_side), repeat=2):
            expected[(i + j) % m_side] ^= gf2.mat_mul(x[i], y[j])
        got = ff.ring_apply(np.fft.rfft(x, axis=0), y)
        assert got.dtype == np.uint8 and np.array_equal(got, expected)


@pytest.mark.parametrize("code, seed, tries, count",
                         [((6, 1, 1), 0, 12, None), ((7, 2, 41), 0, 30, None),
                          ((8, 3, 15), 0, 8, 8)])
def test_reduced_system_decides_like_the_dense_inversion(code, seed, tries,
                                                         count):
    decided = []
    for a_small, g_b_t, f_r in pff_systems(*code, seed, tries, count):
        r = len(a_small)
        reduced = pff.reduced_b_matrix(a_small, g_b_t, f_r)
        assert reduced.shape == (r * r, r * r)
        decided.append(invertible(reduced))
        b = build_b_matrix(r, a_small, g_b_t, f_r)
        assert decided[-1] == invertible(b)
    assert True in decided and False in decided


SEARCHES = {"ff": (ff.search_construction, (8, 3, 63)),
            "pff": (pff.search_pff_construction, (8, 3, 15))}
# SHA-256 of ff(8,3,63)'s A^-1 in ring form (72 x 24 x 24 uint8), recorded
# when the encoder still multiplied by a packed dense A^-1, whose digest was
# pinned here since its search built the dense A of every candidate
RING_DIGEST = "902a9c6177d0e98fbe56c09ce5beecc9e27117f0e768b9927cdfabcd0f792780"


# pff has no full-size inversion to fall back to: its decisions are checked
# above, and its solve against B^-1 in test_pff.py
@pytest.mark.parametrize("family", ["ff"])
def test_search_without_the_small_decision_finds_the_same(family):
    """A search that decides every candidate by inverting its dense A finds
    the same shifts and, expanded from the ring form, the same A^-1."""
    search, code = SEARCHES[family]
    decided = search(*code)
    mode, s1, s2, a_inv = search_dense(*code)
    assert (decided.mode, list(decided.s1), list(decided.s2)) == \
        (mode, list(s1), list(s2))
    assert np.array_equal(ff.expand_ring(decided.a_inv_ring), a_inv)


def test_benchmark_ff_construction_is_pinned():
    """ff(8,3,63), the benchmark's ff code, rejects its low_ef pair and
    keeps its first drawn pair of distinct shifts."""
    cons = ff.search_construction(8, 3, 63)
    assert cons.mode == "block_shift_spread"
    assert list(cons.s1[:4]) == [58, 31, 21, 9]
    assert list(cons.s2[:4]) == [0, 27, 37, 65]
    ring = cons.a_inv_ring
    assert ring.shape == (72, 24, 24) and ring.dtype == np.uint8
    assert hashlib.sha256(ring.tobytes()).hexdigest() == RING_DIGEST


# the sizes of the systems inverted, in order: ff(8,3,63) rejects its
# low_ef candidate on the fold, takes the next and lifts the inverse of its
# fold; pff(8,3,15) inverts A_s once, then the r^2 system for each Pi,
# rejects four and keeps the fifth inverse to solve stage 2 with
@pytest.mark.parametrize("family, sizes",
                         [("ff", [216, 216]),
                          ("pff", [24] + [576] * 5)])
def test_search_inverts_one_full_size_system(monkeypatch, family, sizes):
    search, code = SEARCHES[family]
    inverted = []
    invert = gf2.invert

    def counting(a):
        inverted.append(len(a))
        return invert(a)

    search.cache_clear()
    monkeypatch.setattr(gf2, "invert", counting)
    search(*code)
    search.cache_clear()
    assert inverted == sizes


@pytest.mark.parametrize("code, seed", [((6, 1, 1), 0), ((7, 2, 41), 0),
                                        ((7, 2, 41), 3), ((8, 3, 15), 0),
                                        ((8, 3, 15), 2)])
def test_pff_search_shares_one_stage1_inverse(code, seed):
    """The search inverts A_s once for all its candidates and finds what
    building each candidate on its own, with A_s inverted anew, finds."""
    row, col = code_pair(*code)
    for mode, pi in pff._candidates(row.r, np.random.default_rng(seed), 200):
        try:
            alone = pff.build_pff_construction(
                row, col, pi, gf2.invert(pff.stage1_matrix(row, col)), mode)
            break
        except gf2.SingularMatrixError:
            continue
    pff.search_pff_construction.cache_clear()
    cons = pff.search_pff_construction(*code, seed=seed)
    pff.search_pff_construction.cache_clear()
    assert cons.mode == alone.mode
    for field in ("pi", "a_inv", "u_inv"):
        assert np.array_equal(getattr(cons, field), getattr(alone, field))
