import itertools

import numpy as np
import pytest

from reference import build_b_matrix, perm_matrix, unknown_map, unvec, vec
from stairfec import gf2, pff
from stairfec.bch import code_pair
from stairfec.pff import PFFCode, search_pff_construction
from test_acceptance import check_frame


@pytest.fixture(scope="module")
def cons():
    # m=7, t=2, s=41: n=86, k=72, r=14, M=29 (M - 2r = 1)
    return search_pff_construction(7, 2, 41, seed=0)


@pytest.fixture(scope="module")
def cons_roomy():
    # m=7, t=1, s=27: n=100, k=93... needs parity match; use m=6,t=1,s=1:
    # n=62, k=56, r=6, M=25, M - 2r = 13
    return search_pff_construction(6, 1, 1, seed=0)


def col_read_indices(cons):
    """colidx recomputed from the permutation matrix: (V Pi)[:, j] = V[:, l]
    with Pi[l, j] = 1."""
    p = perm_matrix(cons.pi)
    return np.argmax(p, axis=0)


def test_colidx_matches_matrix(cons):
    assert (col_read_indices(cons) == cons.colidx).all()


def test_stage_systems_invert(cons):
    r = cons.r
    assert (gf2.mat_mul(cons.a_small, cons.a_inv) == gf2.identity(r)).all()
    reduced = pff.reduced_b_matrix(cons.a_small, cons.g_b_t, cons.f_r)
    assert (gf2.mat_mul(reduced, cons.u_inv) == gf2.identity(r * r)).all()


def test_b_matrix_matches_unknown_map(cons):
    r = cons.r
    b = build_b_matrix(r, cons.a_small, cons.g_b_t, cons.f_r)
    rng = np.random.default_rng(0)
    for _ in range(5):
        y2 = rng.integers(0, 2, (r, 2 * r), dtype=np.uint8)
        lhs = unvec(gf2.mat_mul(b, vec(y2, order="row")),
                        2 * r, r, order="row")
        assert (lhs == unknown_map(cons, y2)).all()


# (m, t, s) and the candidates of the seed-0 search taken, identity first;
# 3, 4, 2 and 5 of them pass (pff(8,3,15) the 5th, 9th, 10th, 11th and 14th)
STAGE2_CODES = [((6, 1, 1), 12), ((7, 1, 1), 12), ((7, 2, 41), 12),
                ((8, 3, 15), 16)]


@pytest.mark.parametrize("code, count", STAGE2_CODES)
def test_stage2_solve_matches_b_inverse(code, count):
    """On every candidate that the search would accept, the solve through
    A_s and R is B^-1 on random right-hand sides, stacked along leading
    axes and one at a time."""
    row, col = code_pair(*code)
    rng = np.random.default_rng(11)
    candidates = pff._candidates(row.r, np.random.default_rng(0), count)
    a_inv = gf2.invert(pff.stage1_matrix(row, col))
    solved = 0
    for mode, pi in itertools.islice(candidates, count):
        try:
            cons = pff.build_pff_construction(row, col, pi, a_inv, mode)
        except gf2.SingularMatrixError:
            continue
        r = cons.r
        reduced = pff.reduced_b_matrix(cons.a_small, cons.g_b_t, cons.f_r)
        assert (gf2.mat_mul(cons.u_inv, reduced) == gf2.identity(r * r)).all()
        b = build_b_matrix(r, cons.a_small, cons.g_b_t, cons.f_r)
        known = rng.integers(0, 2, (4, 16, 2 * r, r), dtype=np.uint8)
        flat = known.reshape(-1, 2 * r * r)
        y2 = cons.solve_stage2(known)
        assert y2.shape == (4, 16, r, 2 * r)
        assert (y2.reshape(-1, 2 * r * r)
                == gf2.mat_mul(flat, gf2.invert(b).T)).all()
        assert (gf2.mat_mul(y2.reshape(-1, 2 * r * r), b.T) == flat).all()
        for k, y in zip(known[0], y2[0]):
            assert (cons.solve_stage2(k) == y).all()
        solved += 1
    assert solved


def _split_unknowns(cons, u):
    m_side, r = cons.m_side, cons.r
    m2 = m_side - 2 * r
    sizes = [r * m2, r * m2, 2 * r * r, 2 * r * r]
    parts = []
    off = 0
    for sz in sizes:
        parts.append(u[off : off + sz])
        off += sz
    y1 = unvec(parts[0], r, m2)
    pc1 = unvec(parts[1], r, m2)
    y2 = unvec(parts[2], r, 2 * r)
    pc2 = unvec(parts[3], r, 2 * r)
    return y1, pc1, y2, pc2


def brute_force_sp(codec, m0, s_top, d_block):
    """Solve the raw word-level constraints for the S-block bottom."""
    cons = codec.cons
    m_side, r = cons.m_side, cons.r
    m2 = m_side - 2 * r
    colidx = col_read_indices(cons)
    n_unknown = 2 * r * m2 + 4 * r * r
    g_p = cons.code_row.g_p
    f_p = cons.code_col.g_p

    def residual(u):
        y1, pc1, y2, pc2 = _split_unknowns(cons, u)
        y_full = np.hstack([y1, y2])
        pc_full = np.hstack([pc1, pc2])
        s_blk = np.vstack([s_top, y_full, pc_full])
        # column words: parity must match the column-code systematic map
        col_msg = np.vstack([gf2.zeros(2 * r, m_side), m0, s_top, y_full])
        res_col = pc_full ^ gf2.mat_mul(f_p.T, col_msg)
        # row words: parity is the mirrored Pc column
        row_msg = np.hstack([
            s_blk[:, :m2],
            s_blk[:, m2 + colidx],
            d_block,
            y_full.T,
        ])
        res_row = pc_full.T ^ gf2.mat_mul(row_msg, g_p)
        return np.concatenate([vec(res_col), vec(res_row)])

    base0 = residual(np.zeros(n_unknown, dtype=np.uint8))
    lmat = gf2.zeros(n_unknown, n_unknown)
    for j in range(n_unknown):
        e = np.zeros(n_unknown, dtype=np.uint8)
        e[j] = 1
        lmat[:, j] = residual(e) ^ base0
    u = gf2.mat_mul(gf2.invert(lmat), base0)
    assert not residual(u).any()
    y1, pc1, y2, pc2 = _split_unknowns(cons, u)
    return np.vstack([np.hstack([y1, y2]), np.hstack([pc1, pc2])])


@pytest.mark.parametrize("fixture_name", ["cons", "cons_roomy"])
def test_staged_encoder_matches_joint_solve(fixture_name, request):
    construction = request.getfixturevalue(fixture_name)
    codec = PFFCode(construction, 1, 1, window=2, l_max=2)
    m_side, r = codec.M, codec.r
    rng = np.random.default_rng(1)
    for _ in range(8):
        m0 = rng.integers(0, 2, (m_side, m_side), dtype=np.uint8)
        s_top = rng.integers(0, 2, (m_side - 2 * r, m_side), dtype=np.uint8)
        d_block = rng.integers(0, 2, (m_side, m_side), dtype=np.uint8)
        s_blk = codec.encode_sp_pair(m0, s_top, d_block)
        bottom = brute_force_sp(codec, m0, s_top, d_block)
        assert (s_blk[: m_side - 2 * r] == s_top).all()
        assert (s_blk[m_side - 2 * r :] == bottom).all()


@pytest.mark.parametrize("L", [1, 2, 3])
def test_constraints_and_round_trip(cons, L):
    codec = PFFCode(cons, L, 3, window=3 * (L + 1), l_max=4)
    rng = np.random.default_rng(2 + L)
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    frame = codec.encode_payload(payload)
    check_frame(codec, frame)
    codec.decode_frame(frame)
    assert (codec.extract_payload(frame) == payload).all()


@pytest.mark.parametrize("L", [1, 2])
def test_corrects_scattered_errors(cons, L):
    codec = PFFCode(cons, L, 3, window=3 * (L + 1), l_max=6)
    rng = np.random.default_rng(5)
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    frame = codec.encode_payload(payload)
    for b in frame.blocks[1:]:
        b[rng.integers(0, codec.M), rng.integers(0, codec.M)] ^= 1
    codec.decode_frame(frame)
    assert (codec.extract_payload(frame) == payload).all()


def test_rate_and_payload_geometry(cons):
    codec = PFFCode(cons, 2, 4)
    m_side, r = codec.M, codec.r
    per = (codec.L - 1) * m_side * (m_side - r) \
        + (m_side - 2 * r) * m_side + m_side * m_side
    assert codec.bits_per_period == per
    assert codec.payload_bits == 4 * per
    # every block is M x M, so frame rate approaches 1 - r/M as L grows
    transmitted = (codec.L + 1) * m_side * m_side
    assert codec.bits_per_period < transmitted


def test_validation(cons):
    with pytest.raises(ValueError):
        PFFCode(cons, 0, 2)
    with pytest.raises(ValueError):
        PFFCode(cons, 2, 0)
    codec = PFFCode(cons, 1, 1)
    with pytest.raises(ValueError):
        codec.encode_payload(np.zeros(3, dtype=np.uint8))


def test_construction_refuses_a_wrong_stage1_inverse(cons):
    """A supplied A_s inverse is checked: one flipped bit is refused."""
    wrong = cons.a_inv.copy()
    wrong[0, 0] ^= 1
    with pytest.raises(ValueError, match="not the inverse"):
        pff.build_pff_construction(cons.code_row, cons.code_col, cons.pi, wrong)


def test_describe(cons):
    codec = PFFCode(cons, 3, 2)
    d = codec.describe()
    assert d["family"] == "pff" and d["L"] == 3
