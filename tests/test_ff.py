from fractions import Fraction

import numpy as np
import pytest

from reference import (
    block_diag,
    build_a_matrix,
    elementary_perm,
    ff_rate_finite,
    pc_from_pr,
    perm_matrix,
    permutations,
    pr_from_pc,
    transpose_perm,
    unvec,
    vec,
    x_from_y,
    y_from_x,
)
from stairfec import gf2
from stairfec.bch import code_pair
from stairfec.ff import (
    FFCode,
    FFConstruction,
    expand_ring,
    low_ef_shifts,
    search_construction,
    shifted_block_indices,
    transpose_indices,
)
from stairfec.pff import PFFConstruction, stage1_matrix


@pytest.fixture(scope="module")
def cons_small():
    # m=6, t=1, s=19: M=16, r=6, so M' = 1 and the fold is 6 x 6
    return search_construction(6, 1, 19, seed=0)


@pytest.fixture(scope="module")
def cons_low_ef():
    # m=6, t=1, s=1: M=25, r=6; the canonical pair is usable here
    return search_construction(6, 1, 1, seed=0)


def matrix_mirrors(cons):
    """Mirror maps recomputed through explicit permutation matrices."""
    m_side, r = cons.m_side, cons.r
    p1, p2 = map(perm_matrix, permutations(cons))
    t_y = transpose_perm(r, m_side)

    def x_of(y):
        v = gf2.mat_mul(gf2.invert(p1), gf2.mat_mul(t_y, vec(y)))
        return unvec(v, m_side, r)

    def pr_of(pc):
        v = gf2.mat_mul(gf2.invert(p2), gf2.mat_mul(t_y, vec(pc)))
        return unvec(v, m_side, r)

    return x_of, pr_of


def test_transpose_indices_match_matrix():
    rng = np.random.default_rng(0)
    for rows, cols in [(2, 5), (4, 3), (6, 6)]:
        y = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        idx = transpose_indices(rows, cols)
        assert (vec(y)[idx] == vec(y.T)).all()


def test_shifted_block_indices_match_matrix():
    m_side = 6
    shifts = [2, 0, 5]
    idx = shifted_block_indices(shifts, m_side)
    mat = block_diag([elementary_perm(m_side, s) for s in shifts])
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, m_side * 3, dtype=np.uint8)
    assert (x[idx] == gf2.mat_mul(mat, x)).all()


def test_low_ef_requires_room():
    with pytest.raises(ValueError):
        low_ef_shifts(8, 4)


def test_mirror_maps_match_matrix_form(cons_low_ef):
    cons = cons_low_ef
    x_of, pr_of = matrix_mirrors(cons)
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, (cons.r, cons.m_side), dtype=np.uint8)
    pc = rng.integers(0, 2, (cons.r, cons.m_side), dtype=np.uint8)
    assert (x_from_y(cons, y) == x_of(y)).all()
    assert (pr_from_pc(cons, pc) == pr_of(pc)).all()
    assert (y_from_x(cons, x_from_y(cons, y)) == y).all()
    assert (pc_from_pr(cons, pr_from_pc(cons, pc)) == pc).all()


def test_mirror_entry_coordinates(cons_low_ef):
    # row word `row` of pair 1 reads X[row, col] from the Y slot at 2M + col
    cons = cons_low_ef
    ff = FFCode(cons, 4)
    frame = ff.encode_payload(np.zeros(ff.payload_bits, dtype=np.uint8))
    rows_table = ff.groups[3][1]
    rng = np.random.default_rng(3)
    for _ in range(20):
        row = int(rng.integers(0, cons.m_side))
        col = int(rng.integers(0, cons.r))
        frame.buf[rows_table[row, 2 * cons.m_side + col]] ^= 1
        x = x_from_y(cons, frame.pairs[1].y)
        assert x.sum() == 1 and x[row, col] == 1
        frame.buf[:] = 0


def test_a_matrix_functional_identity(cons_low_ef):
    cons = cons_low_ef
    m_side, r = cons.m_side, cons.r
    pi1, pi2 = permutations(cons)
    a = build_a_matrix(m_side, r, cons.g_r, cons.f_r, pi1, pi2)
    assert (gf2.mat_mul(a, expand_ring(cons.a_inv_ring))
            == gf2.identity(m_side * r)).all()
    x_of, _ = matrix_mirrors(cons)
    p2 = perm_matrix(pi2)
    rng = np.random.default_rng(4)
    for _ in range(5):
        y = rng.integers(0, 2, (r, m_side), dtype=np.uint8)
        xg = gf2.mat_mul(x_of(y), cons.g_r)
        mirrored = unvec(gf2.mat_mul(p2, vec(xg)), m_side, r).T
        rhs = gf2.mat_mul(cons.f_r.T, y) ^ mirrored
        lhs = unvec(gf2.mat_mul(a, vec(y)), r, m_side)
        assert (lhs == rhs).all()


def brute_force_pair(cons, b0, b1, b2):
    """Joint linear solve of the raw pair constraints, bypassing A."""
    m_side, r = cons.m_side, cons.r
    n_unknown = 2 * m_side * r
    x_of, pr_of = matrix_mirrors(cons)

    def residual(u):
        y = unvec(u[: m_side * r], r, m_side)
        pc = unvec(u[m_side * r :], r, m_side)
        x = x_of(y)
        pr = pr_of(pc)
        res_row = pr ^ gf2.mat_mul(np.hstack([b0, b1]), cons.g_i) \
            ^ gf2.mat_mul(x, cons.g_r)
        res_col = pc ^ gf2.mat_mul(cons.f_i.T, np.vstack([b1, b2])) \
            ^ gf2.mat_mul(cons.f_r.T, y)
        return np.concatenate([vec(res_row), vec(res_col)])

    base = residual(np.zeros(n_unknown, dtype=np.uint8))
    lmat = gf2.zeros(n_unknown, n_unknown)
    for j in range(n_unknown):
        e = np.zeros(n_unknown, dtype=np.uint8)
        e[j] = 1
        lmat[:, j] = residual(e) ^ base
    u = gf2.mat_mul(gf2.invert(lmat), base)
    y = unvec(u[: m_side * r], r, m_side)
    pc = unvec(u[m_side * r :], r, m_side)
    assert not residual(u).any()
    return y, pc


@pytest.mark.parametrize("fixture_name", ["cons_small", "cons_low_ef"])
def test_staged_encoder_matches_joint_solve(fixture_name, request):
    cons = request.getfixturevalue(fixture_name)
    ff = FFCode(cons, 2, window=2, l_max=2)
    m_side = cons.m_side
    rng = np.random.default_rng(5)
    for _ in range(10):
        b0 = np.zeros((m_side, m_side), dtype=np.uint8)
        b1 = rng.integers(0, 2, (m_side, m_side), dtype=np.uint8)
        b2 = rng.integers(0, 2, (m_side, m_side), dtype=np.uint8)
        pair = ff.encode_pair(b0, b1, b2)
        y, pc = brute_force_pair(cons, b0, b1, b2)
        assert (pair.y == y).all()
        assert (pair.pc == pc).all()


def test_encode_constraint_satisfaction(cons_low_ef):
    cons = cons_low_ef
    ff = FFCode(cons, 4, window=4, l_max=4)
    rng = np.random.default_rng(6)
    payload = rng.integers(0, 2, ff.payload_bits, dtype=np.uint8)
    frame = ff.encode_payload(payload)
    for j in range(ff.n_pairs):
        b0, b1, b2 = (frame.blocks[2 * j], frame.blocks[2 * j + 1],
                      frame.blocks[2 * j + 2])
        pair = frame.pairs[j]
        x = x_from_y(cons, pair.y)
        pr = pr_from_pc(cons, pair.pc)
        rows = np.hstack([b0, b1, x, pr])
        cols = np.vstack([b1, b2, pair.y, pair.pc]).T
        assert not cons.code_row.words_with_errors(rows).any()
        assert not cons.code_col.words_with_errors(cols).any()


def test_noiseless_round_trip(cons_low_ef):
    ff = FFCode(cons_low_ef, 6, window=6, l_max=4)
    rng = np.random.default_rng(7)
    payload = rng.integers(0, 2, ff.payload_bits, dtype=np.uint8)
    frame = ff.encode_payload(payload)
    ff.decode_frame(frame)
    assert (ff.extract_payload(frame) == payload).all()


def test_decode_corrects_redundancy_errors(cons_low_ef):
    ff = FFCode(cons_low_ef, 4, window=4, l_max=6)
    rng = np.random.default_rng(8)
    payload = rng.integers(0, 2, ff.payload_bits, dtype=np.uint8)
    frame = ff.encode_payload(payload)
    clean_y = frame.pairs[1].y.copy()
    frame.pairs[1].y[2, 10] ^= 1
    frame.blocks[2][5, 7] ^= 1
    ff.decode_frame(frame)
    assert (ff.extract_payload(frame) == payload).all()
    assert (frame.pairs[1].y == clean_y).all()


def test_encode_does_not_alias_payload(cons_small):
    ff = FFCode(cons_small, 2, window=2, l_max=2)
    payload = np.zeros(ff.payload_bits, dtype=np.uint8)
    frame = ff.encode_payload(payload)
    frame.blocks[1][0, 0] ^= 1
    assert payload.sum() == 0


def test_rate_formula():
    # even block counts give the asymptotic rate (2k-n)/n
    assert ff_rate_finite(8, 100, 86) == Fraction(2 * 86 - 100, 100)
    assert ff_rate_finite(2, 100, 86) == Fraction(72, 100)
    # odd counts pay for the extra half pair
    assert ff_rate_finite(3, 100, 86) < ff_rate_finite(4, 100, 86)
    with pytest.raises(ValueError):
        ff_rate_finite(0, 100, 86)


def test_block_count_validation(cons_small):
    with pytest.raises(ValueError):
        FFCode(cons_small, 3)
    with pytest.raises(ValueError):
        FFCode(cons_small, 0)


def test_describe(cons_small):
    ff = FFCode(cons_small, 2)
    d = ff.describe()
    assert d["family"] == "ff"
    assert d["code"]["m"] == 6 and d["mode"] == "low_ef"


def refuse(*args):
    raise AssertionError("built a system")


def _repeat_first(pi):
    pi = pi.copy()
    pi[1] = pi[0]
    return pi


# each case spoils a pff permutation and, where the fault applies to
# shifts (repeated shifts are allowed), an ff shift vector
@pytest.mark.parametrize("spoil, spoil_shifts", [
    pytest.param(lambda pi: pi[:-1], lambda s: s[:-1], id="short"),
    pytest.param(lambda pi: pi + 1, lambda s: s + 25, id="out-of-range"),
    pytest.param(_repeat_first, None, id="repeated"),
    pytest.param(lambda pi: pi.astype(float), lambda s: s.astype(float),
                 id="not-integer"),
])
def test_constructions_reject_bad_permutations(spoil, spoil_shifts,
                                               monkeypatch):
    """Both constructions take caller-supplied permutations, ff as shift
    vectors, and refuse bad ones before building any system."""
    ff_codes, pff_codes = code_pair(6, 1, 1), code_pair(7, 2, 41)
    s1, s2 = low_ef_shifts(25, 6)
    a_inv = gf2.invert(stage1_matrix(*pff_codes))
    monkeypatch.setattr(gf2, "invert", refuse)
    with pytest.raises(ValueError, match="not a permutation"):
        PFFConstruction(*pff_codes, spoil(np.arange(28)), a_inv)
    if spoil_shifts is None:
        return
    for make in [lambda: FFConstruction(*ff_codes, spoil_shifts(s1), s2),
                 lambda: FFConstruction(*ff_codes, s1, spoil_shifts(s2))]:
        with pytest.raises(ValueError, match="shifts must be 6 integers"):
            make()


def test_search_refuses_codes_without_room_for_a_shift_pair(monkeypatch):
    """ff(4,1,1) has M = 3 and r = 4: no 2r distinct shifts exist, so the
    search refuses it before it builds any candidate."""
    monkeypatch.setattr("stairfec.ff.build_construction", refuse)
    monkeypatch.setattr(gf2, "invert", refuse)
    search_construction.cache_clear()
    with pytest.raises(ValueError, match="need 2r < M, got M = 3, r = 4"):
        search_construction(4, 1, 1)
