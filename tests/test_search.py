"""The construction searches decide each candidate on a small exact system:
ff on A reduced modulo z^M' - 1 (``ff.fold_a_matrix``), whose inverse it
lifts to A^-1 (``ff.lift_inverse``), so ff inverts no Mr x Mr system; pff
on the r^2 x r^2 system through which it solves the stage-2 system B
(``pff.reduced_b_matrix``), so pff builds no B at all.  Each decision must
be the one that inverting the full system gives, and each lifted inverse
the dense one, so the searches pick the constructions they picked by
inverting every candidate.
"""

import itertools

import numpy as np
import pytest

from reference import build_b_matrix
from stairfec import ff, gf2, pff
from stairfec.bch import code_pair


def invertible(a):
    try:
        gf2.invert(a)
    except gf2.SingularMatrixError:
        return False
    return True


def ff_systems(m, t, s, seed, tries, count=None):
    """(mode, A, M, r) of the first ``count`` candidates of ff's search."""
    row, col = code_pair(m, t, s)
    m_side, r = (row.k - row.r) // 2, row.r
    g_r, f_r = row.g_p[2 * m_side :], col.g_p[2 * m_side :]
    candidates = ff._candidates(m_side, r, np.random.default_rng(seed), tries)
    for mode, (pi1, pi2) in itertools.islice(candidates, count):
        yield mode, ff.build_a_matrix(m_side, r, g_r, f_r, pi1, pi2), m_side, r


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
FF_CODES = [((6, 2, 7), (0, 1), 4, None), ((7, 2, 27), (0, 1, 2), 4, None),
            ((8, 3, 63), (0,), 4, 4)]


@pytest.mark.parametrize("code, seeds, tries, count", FF_CODES)
def test_fold_decides_like_the_dense_inversion(code, seeds, tries, count):
    decided = []
    for seed in seeds:
        for mode, a, m_side, r in ff_systems(*code, seed, tries, count):
            folded = ff.fold_a_matrix(a, m_side, r)
            # every shift-based A is block-circulant; these random ones are not
            assert (folded is None) == (mode == "random")
            if folded is not None:
                odd = m_side // (m_side & -m_side)
                assert folded.shape == (odd * r, odd * r)
                decided.append(invertible(folded))
                assert decided[-1] == invertible(a), (code, seed, mode)
    # singular ones included, bar ff(6,2,7), where M' = 1 and the draws
    # give none
    assert True in decided and (False in decided or code == (6, 2, 7))


def test_fold_of_odd_m_is_a_itself():
    # ff(6,1,1): M = 25 = M', so the search lifts in no steps
    for mode, a, m_side, r in ff_systems(6, 1, 1, 0, 2):
        folded = ff.fold_a_matrix(a, m_side, r)
        assert (folded is None) == (mode == "random")
        assert folded is None or np.array_equal(folded, a)


# one code per number e of lift steps, M = 2^e M': M = 13, 14, 20, 24, 16,
# 32 and 64
LIFT_CODES = [(6, 1, 25), (6, 1, 23), (6, 1, 11), (6, 1, 3), (6, 1, 19),
              (7, 1, 49), (8, 1, 111)]


@pytest.mark.parametrize("code", LIFT_CODES)
def test_lifted_inverse_is_the_dense_inverse(code):
    """Every candidate that passes has the inverse that inverting A gives:
    expanded from its ring form, or, for random pairs, packed alone."""
    row, col = code_pair(*code)
    m_side, r = (row.k - row.r) // 2, row.r
    lifted = 0
    for mode, (pi1, pi2) in ff._candidates(m_side, r,
                                           np.random.default_rng(0), 3):
        a = ff.build_a_matrix(m_side, r, row.g_p[2 * m_side :],
                              col.g_p[2 * m_side :], pi1, pi2)
        try:
            cons = ff.build_construction(row, col, pi1, pi2, mode)
        except gf2.SingularMatrixError:
            assert not invertible(a)
            continue
        a_inv = gf2.invert(a)
        assert np.array_equal(cons.op_a_inv, gf2.operand(a_inv))
        if mode == "random":
            assert cons.a_inv_ring is None
        else:
            assert np.array_equal(ff.expand_ring(cons.a_inv_ring), a_inv)
            lifted += 1
    assert lifted


def test_lift_check_fails_on_every_flipped_bit():
    # ff(6,1,19): M = 16, r = 6; an inverse of full length lifts in no
    # steps, so lift_inverse only checks it
    cons = ff.search_construction(6, 1, 19)
    a = ff.build_a_matrix(cons.m_side, cons.r, cons.g_r, cons.f_r,
                          cons.pi1, cons.pi2)
    a_ring = ff.ring_form(a, cons.m_side, cons.r)
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
    assert np.array_equal(ff.ring_form(dense, 5, 3), x)
    assert ff.fold_a_matrix(dense, 5, 3) is not None
    # the ring product is the product of the block circulants
    assert np.array_equal(ff.expand_ring(ff.ring_product(x, y)),
                          gf2.mat_mul(dense, ff.expand_ring(y)))


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


# pff has no full-size inversion to fall back to: its decisions are checked
# above, and its solve against B^-1 in test_pff.py
@pytest.mark.parametrize("family", ["ff"])
def test_search_without_the_small_decision_finds_the_same(monkeypatch,
                                                          family):
    """With the fold standing in as never applying, every candidate goes to
    the dense inversion, and the search finds the same construction."""
    search, code = SEARCHES[family]
    search.cache_clear()
    decided = search(*code)
    search.cache_clear()
    monkeypatch.setattr(ff, "fold_a_matrix", lambda *args: None)
    dense = search(*code)
    search.cache_clear()
    for field in ("mode", "pi1", "pi2", "op_a_inv"):
        assert np.array_equal(getattr(decided, field), getattr(dense, field))
    assert decided.a_inv_ring is not None and dense.a_inv_ring is None


# the sizes of the systems inverted, in order: ff(8,3,63) rejects its
# low_ef candidate on the fold, takes the next and lifts the inverse of its
# fold; pff(8,3,15) inverts A_s
# and the r^2 system for each Pi, rejects four and keeps the fifth inverse
# to solve stage 2 with
@pytest.mark.parametrize("family, sizes",
                         [("ff", [216, 216]),
                          ("pff", [24, 576] * 5)])
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
