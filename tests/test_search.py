"""The construction searches decide each candidate on a small exact system:
ff on A(z) reduced modulo z^M' - 1 (``ff.fold_ring``), whose inverse it
lifts to A^-1 (``ff.lift_inverse``), so ff builds and inverts no Mr x Mr
system; pff on the eigenvalues of an r x r matrix N
(``pff.reduced_b_invertible``), which decide the r^2 x r^2 system through
which it solves the stage-2 system B (``pff.reduced_b_matrix``), so pff
builds no B at all and inverts R only for the Pi it keeps.  ff builds
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

from reference import (build_a_matrix, build_b_matrix, minimal_polynomial,
                       reduced_b_invertible, ring_form, search_dense)
from stairfec import ff, gf2, pff
from stairfec.bch import code_pair
from stairfec.parameters import family_params


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
    candidates = itertools.islice(
        ff._candidates(m_side, r, np.random.default_rng(seed)), 1 + tries)
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
    candidates = itertools.islice(
        pff._candidates(r, np.random.default_rng(seed)), 1 + tries)
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
    for mode, (s1, s2) in itertools.islice(
            ff._candidates(m_side, r, np.random.default_rng(0)), 4):
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


def pff_grid(ms, ts, s_step, count):
    """(code, A_s, A_s^-1, G_B~, F_r) of the first ``count`` candidates
    (seed 0) of every pff code with m in ``ms``, t in ``ts`` and s a multiple
    of ``s_step`` that family_params accepts and whose A_s is invertible."""
    for m, t in itertools.product(ms, ts):
        for s in range(0, 1 << m, s_step):
            try:
                family_params("pff", m, t, s)
                a_inv = gf2.invert(pff.stage1_matrix(*code_pair(m, t, s)))
            except ValueError:  # SingularMatrixError included
                continue
            for a_small, g_b_t, f_r in pff_systems(m, t, s, 0, 200, count):
                yield (m, t, s), a_small, a_inv, g_b_t, f_r


def test_pff_criterion_decides_like_the_dense_inversion():
    """N's eigenvalues decide each candidate as inverting R does, on the
    first six candidates of the pff codes with m = 4..8, t = 1..3 and s
    stepped by 3 (618 candidates of 103 codes, 150 of them invertible)."""
    decided = []
    for code, a_small, a_inv, g_b_t, f_r in pff_grid(range(4, 9), (1, 2, 3),
                                                     3, 6):
        decided.append(pff.reduced_b_invertible(a_inv, pff.stage2_h(g_b_t,
                                                                    f_r)))
        assert decided[-1] == reduced_b_invertible(a_small, g_b_t, f_r), code
    assert (len(decided), sum(decided)) == (618, 150)


def companion(poly):
    """The companion matrix of a monic GF(2)[x] polynomial (int, bit i:
    x^i), whose minimal polynomial it is."""
    d = poly.bit_length() - 1
    c = gf2.zeros(d, d)
    c[1:, :-1] = gf2.identity(d - 1)
    c[:, -1] = [(poly >> i) & 1 for i in range(d)]
    return c


def block_diag(*blocks):
    out = gf2.zeros(sum(map(len, blocks)), sum(map(len, blocks)))
    at = 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


X3_X_1, X3_X2_1, X2_X_1 = 0b1011, 0b1101, 0b111
NILPOTENT = np.triu(np.ones((3, 3), dtype=np.uint8), 1)


@pytest.mark.parametrize("n, mu", [
    (gf2.zeros(3, 3), 0b10),
    (gf2.identity(3), 0b11),
    (NILPOTENT, 0b1000),
    (companion(X3_X_1), X3_X_1),
    # the lcm, not the product, of the blocks' polynomials
    (block_diag(companion(X2_X_1), companion(X2_X_1)), X2_X_1),
    # (x^3 + x + 1)(x + 1)(x^3 + x^2 + 1) = x^7 + 1
    (block_diag(companion(X3_X_1), gf2.identity(2), companion(X3_X2_1)),
     0b10000001),
])
def test_minimal_polynomial(n, mu):
    assert pff._minimal_polynomial(n) == mu


def random_square(kind, r, rng):
    """An r x r matrix: uniformly random, of rank below r, or block-diagonal
    with a block repeated, so that the minimal polynomial is not the
    characteristic one."""
    if kind == "random":
        return rng.integers(0, 2, (r, r), dtype=np.uint8)
    if kind == "low_rank":
        k = int(rng.integers(0, r))
        return gf2.mat_mul(rng.integers(0, 2, (r, k), dtype=np.uint8),
                           rng.integers(0, 2, (k, r), dtype=np.uint8))
    sizes = []
    while sum(sizes) < r:
        sizes.append(int(rng.integers(1, r - sum(sizes) + 1)))
    blocks = [rng.integers(0, 2, (d, d), dtype=np.uint8) for d in sizes]
    # the first block again, in place of the last where it fits
    if sizes[0] <= sizes[-1] and len(sizes) > 1:
        blocks[-1] = block_diag(blocks[0], gf2.zeros(sizes[-1] - sizes[0],
                                                     sizes[-1] - sizes[0]))
    return block_diag(*blocks)


@pytest.mark.parametrize("kind", ["random", "low_rank", "block_diagonal"])
def test_minimal_polynomial_matches_the_krylov_lcm(kind):
    """The first power of N that the lower ones span gives the polynomial
    that the lcm of N's Krylov polynomials gives (``reference``), for
    r = 1..48."""
    rng = np.random.default_rng(["random", "low_rank",
                                 "block_diagonal"].index(kind))
    for r in itertools.chain(range(1, 49), rng.integers(1, 49, 152)):
        n = random_square(kind, int(r), rng)
        assert pff._minimal_polynomial(n) == minimal_polynomial(n), (kind, r)


@pytest.mark.parametrize("n, invertible_r", [
    (gf2.zeros(3, 3), True),
    (NILPOTENT, True),
    # singular, with the roots of x^3 + x + 1, none the reciprocal of another
    (block_diag(gf2.zeros(1, 1), companion(X3_X_1)), True),
    (block_diag(NILPOTENT, companion(X3_X2_1)), True),
    (companion(X3_X_1), True),
    # an eigenvalue 1, simple or not
    (gf2.identity(1), False),
    (block_diag(gf2.identity(1), companion(X3_X_1)), False),
    (block_diag(gf2.zeros(2, 2), gf2.identity(1)), False),
    # a pair lambda, 1/lambda: x^3 + x^2 + 1 is the reversal of x^3 + x + 1,
    # and x^2 + x + 1's roots are each other's inverse
    (block_diag(companion(X3_X_1), companion(X3_X2_1)), False),
    (block_diag(gf2.zeros(1, 1), companion(X3_X_1), companion(X3_X2_1)),
     False),
    (companion(X2_X_1), False),
    (companion(0b1001), False),  # x^3 + 1 = (x + 1)(x^2 + x + 1)
])
def test_pff_criterion_on_hand_built_n(n, invertible_r):
    """With A_s = I and H = N^T, R(U) = U N^T + U^T: an eigenvalue 0 pairs
    with none, so a singular N is not refused; an eigenvalue 1, or two
    eigenvalues that multiply to 1, are."""
    r = len(n)
    g_b_t = np.vstack([n.T, gf2.zeros(r, r)])
    f_r = gf2.zeros(r, r)
    h = pff.stage2_h(g_b_t, f_r)
    assert np.array_equal(h, n.T)
    assert reduced_b_invertible(gf2.identity(r), g_b_t, f_r) == invertible_r
    assert pff.reduced_b_invertible(gf2.identity(r), h) == invertible_r


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


def test_benchmark_pff_construction_is_pinned():
    """pff(8,3,15), the benchmark's pff code, rejects the identity and its
    first three random Pi, and keeps the fourth drawn."""
    cons = pff.search_pff_construction(8, 3, 15)
    assert cons.mode == "random"
    assert list(cons.pi[:6]) == [43, 39, 30, 35, 37, 47]


def test_pff_search_refusing_every_candidate_raises(monkeypatch):
    """pff(8,3,15) with three random draws tries only the four Pi that N
    refuses."""
    monkeypatch.setattr(pff, "MAX_TRIES", 3)
    pff.search_pff_construction.cache_clear()
    with pytest.raises(gf2.SingularMatrixError,
                       match="singular for every candidate"):
        pff.search_pff_construction(8, 3, 15)


# the sizes of the systems inverted, in order: ff(8,3,63) rejects its
# low_ef candidate on the fold, takes the next and lifts the inverse of its
# fold; pff(8,3,15) inverts A_s once, rejects four Pi on their r x r
# matrices N, and inverts the r^2 system of the fifth to solve stage 2 with
@pytest.mark.parametrize("family, sizes",
                         [("ff", [216, 216]),
                          ("pff", [24, 576])])
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
    for mode, pi in pff._candidates(row.r, np.random.default_rng(seed)):
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
