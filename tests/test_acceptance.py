"""
End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line on the terminal (bypassing capture)
so the whole battery can be read at a glance.
"""

import math
import time
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from reference import (perm_matrix, permutations, pr_from_pc, transpose_perm,
                       unvec, vec, x_from_y)
from stairfec import gf2
from stairfec.bch import ComponentCode
from stairfec.ff import (
    FFCode,
    low_ef_shifts,
    search_construction,
    shifted_block_indices,
    transpose_indices,
)
from stairfec.floors import apply_stall, certify_stall, ff_floor, gen_stall, ncg_gap
from stairfec.pff import PFFCode, search_pff_construction
from stairfec.sim import build_codec, run_monte_carlo
from stairfec.staircase import StaircaseCode
from stairfec.parameters import family_params

FF_TABLE = [
    # (m, t, s, n, k, r, M, rate)
    (8, 3, 63, 192, 168, 24, 72, Fraction(3, 4)),
    (8, 3, 15, 240, 216, 24, 96, Fraction(4, 5)),
    (9, 3, 187, 324, 297, 27, 135, Fraction(5, 6)),
    (10, 3, 183, 840, 810, 30, 390, Fraction(13, 14)),
]
PFF_TABLE = [
    # (m, t, s, n, k, r, M, rate, p15, gap_db)
    (8, 3, 15, 240, 216, 24, 96, Fraction(3, 4), 1.82e-2, 1.64),
    (9, 3, 187, 324, 297, 27, 135, Fraction(4, 5), 1.56e-2, 1.25),
    (9, 3, 133, 378, 351, 27, 162, Fraction(5, 6), 1.30e-2, 1.07),
    (10, 3, 123, 900, 870, 30, 420, Fraction(13, 14), 4.80e-3, 0.73),
]


def _run(capsys, num, desc, body):
    try:
        body()
    except Exception:
        with capsys.disabled():
            print(f"[criterion {num:2d}] {desc}: FAIL")
        raise
    with capsys.disabled():
        print(f"[criterion {num:2d}] {desc}: PASS")


# -- table-scale fixtures (built once) ----------------------------------------

@pytest.fixture(scope="session")
def table_ff():
    return search_construction(8, 3, 63, seed=0)


@pytest.fixture(scope="session")
def table_pff():
    return search_pff_construction(8, 3, 15, seed=0)


@pytest.fixture(scope="session")
def table_sc_code():
    return ComponentCode(8, 3, 63)


# -- per-family frame constraint checks ----------------------------------------
#
# Each builder makes the frame's component words from block views, as
# (code, words) in the order of the codec's compiled word groups.

def sc_words(codec, frame):
    return [(codec.code, np.hstack([prev.T, cur]))
            for prev, cur in zip(frame.blocks, frame.blocks[1:])]


def ff_words(codec, frame):
    cons = codec.cons
    groups = []
    for j, pair in enumerate(frame.pairs):
        b0, b1, b2 = frame.blocks[2 * j : 2 * j + 3]
        rows = np.hstack([b0, b1, x_from_y(cons, pair.y),
                          pr_from_pc(cons, pair.pc)])
        cols = np.vstack([b1, b2, pair.y, pair.pc]).T
        groups += [(cons.code_col, cols), (cons.code_row, rows)]
    return groups


def pff_words(codec, frame):
    cons = codec.cons
    m_side, r = codec.M, codec.r
    m2 = m_side - 2 * r
    pad = np.zeros((m_side, 2 * r), dtype=np.uint8)
    groups = []
    for q in range(codec.n_periods):
        base = q * (codec.L + 1)
        for i in range(1, codec.L):
            words = np.hstack([pad, frame.blocks[base + i - 1].T,
                               frame.blocks[base + i]])
            groups.append((cons.code_row, words))
        m0 = frame.blocks[base + codec.L - 1]
        s_blk = frame.blocks[base + codec.L]
        d_blk = frame.blocks[base + codec.L + 1]
        groups.append((cons.code_col, np.hstack([pad, np.vstack([m0, s_blk]).T])))
        # one row word per S row: S's left columns, its right 2r columns
        # read through Pi, D's row, then S's bottom rows as columns
        rows = np.hstack([
            s_blk[:, :m2],
            s_blk[:, m2 + cons.colidx],
            d_blk,
            s_blk[m2 : m2 + r, :].T,
            s_blk[m2 + r :, :].T,
        ])
        groups.append((cons.code_row, rows))
    return groups


REFERENCE_WORDS = {"sc": sc_words, "ff": ff_words, "pff": pff_words}


def check_frame(codec, frame):
    """Every component word of the frame is a codeword."""
    for code, words in REFERENCE_WORDS[codec.family](codec, frame):
        assert not code.words_with_errors(words).any()


def test_compiled_tables_match_reference_words(table_ff, table_pff,
                                               table_sc_code):
    codecs = [
        StaircaseCode(ComponentCode(4, 1, 1), 4, window=4, l_max=4),
        StaircaseCode(table_sc_code, 4, window=4, l_max=4),
        FFCode(search_construction(6, 1, 1, seed=0), 4, window=4, l_max=4),
        FFCode(table_ff, 4, window=4, l_max=4),
    ]
    codecs += [PFFCode(table_pff, L, 2, window=6, l_max=4) for L in (1, 2, 3)]
    rng = np.random.default_rng(12)
    for codec in codecs:
        payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
        encoded = codec.encode_payload(payload)
        # random bits too, where only the zero slot can read as pad or B_0
        noise = codec.frame_from_bits(rng.integers(0, 2, codec.n_tx))
        for frame in (encoded, noise):
            reference = REFERENCE_WORDS[codec.family](codec, frame)
            assert len(reference) == len(codec.groups)
            for (code, words), (ref_code, ref_words) in zip(codec.groups,
                                                            reference):
                assert code is ref_code
                assert words.dtype == np.intp
                assert (frame.buf[words] == ref_words).all()
        for code, words in codec.groups:
            assert not code.words_with_errors(encoded.buf[words]).any()
        # decode and Plan.syndromes gather from the padded tables: no slot,
        # then the zero slot, after each word's n slots
        padded = [(code, words) for window in codec.plan.windows
                  for code, words, _ in window]
        padded += [(code, table) for code, table, _ in codec.plan.stacks]
        for code, table in padded:
            assert table.dtype == np.intp and table.flags.c_contiguous
            assert (table[:, code.n] == -1).all()
            assert (table[:, code.n + 1] == codec.n_tx).all()


# -- criteria ------------------------------------------------------------------

def test_criterion_01_parameter_reproduction(capsys):
    def body():
        t0 = time.perf_counter()
        for m, t, s, n, k, r, m_side, rate in FF_TABLE:
            p = family_params("ff", m, t, s)
            assert (p.n, p.k, p.r, p.M, p.rate) == (n, k, r, m_side, rate)
            assert p.overhead_pct == pytest.approx(float((1 / rate - 1) * 100))
        for m, t, s, n, k, r, m_side, rate, _, _ in PFF_TABLE:
            p = family_params("pff", m, t, s)
            assert (p.n, p.k, p.r, p.M, p.rate) == (n, k, r, m_side, rate)
            assert p.overhead_pct == pytest.approx(float((1 / rate - 1) * 100))
        assert time.perf_counter() - t0 < 1.0

    _run(capsys, 1, "parameter reproduction (8 table rows, < 1 s)", body)


def test_criterion_02_ncg_gap(capsys):
    def body():
        for _, _, _, _, _, _, _, rate, p15, gap in PFF_TABLE:
            assert ncg_gap(rate, p15) == pytest.approx(gap, abs=0.02)

    _run(capsys, 2, "coding-gain gap reproduction (+-0.02 dB)", body)


def test_criterion_03_constraint_satisfaction(capsys, table_ff, table_pff,
                                              table_sc_code):
    toy_codecs = [
        StaircaseCode(ComponentCode(4, 1, 1), 4, window=4, l_max=4),
        FFCode(search_construction(6, 1, 1, seed=0), 4, window=4, l_max=4),
        PFFCode(search_pff_construction(7, 2, 41, seed=0), 2, 2,
                window=6, l_max=4),
    ]
    table_codecs = [
        StaircaseCode(table_sc_code, 4, window=4, l_max=4),
        FFCode(table_ff, 4, window=4, l_max=4),
        PFFCode(table_pff, 2, 2, window=6, l_max=4),
    ]

    def body():
        rng = np.random.default_rng(0)
        for codec in toy_codecs + table_codecs:
            for _ in range(100):
                payload = rng.integers(0, 2, codec.payload_bits,
                                       dtype=np.uint8)
                check_frame(codec, codec.encode_payload(payload))

    _run(capsys, 3, "100-frame constraint satisfaction, toy and table scale",
         body)


def _ff_oracle(cons):
    """Precomputed joint linear solve of the raw pair constraints."""
    m_side, r = cons.m_side, cons.r
    n_unknown = 2 * m_side * r
    p1_inv, p2_inv = (gf2.invert(perm_matrix(pi))
                      for pi in permutations(cons))
    t_y = transpose_perm(r, m_side)

    def mirrors(u):
        y = unvec(u[: m_side * r], r, m_side)
        pc = unvec(u[m_side * r :], r, m_side)
        x = unvec(gf2.mat_mul(p1_inv, gf2.mat_mul(t_y, vec(y))),
                      m_side, r)
        pr = unvec(gf2.mat_mul(p2_inv, gf2.mat_mul(t_y, vec(pc))),
                       m_side, r)
        return y, pc, x, pr

    def residual(u, b0, b1, b2):
        y, pc, x, pr = mirrors(u)
        res_row = pr ^ gf2.mat_mul(np.hstack([b0, b1]), cons.g_i) \
            ^ gf2.mat_mul(x, cons.g_r)
        res_col = pc ^ gf2.mat_mul(cons.f_i.T, np.vstack([b1, b2])) \
            ^ gf2.mat_mul(cons.f_r.T, y)
        return np.concatenate([vec(res_row), vec(res_col)])

    zeros = [np.zeros((m_side, m_side), dtype=np.uint8)] * 3
    lmat = gf2.zeros(n_unknown, n_unknown)
    for j in range(n_unknown):
        e = np.zeros(n_unknown, dtype=np.uint8)
        e[j] = 1
        lmat[:, j] = residual(e, *zeros)
    lmat_inv = gf2.invert(lmat)

    def solve(b0, b1, b2):
        base = residual(np.zeros(n_unknown, dtype=np.uint8), b0, b1, b2)
        u = gf2.mat_mul(lmat_inv, base)
        assert not residual(u, b0, b1, b2).any()
        y, pc, _, _ = mirrors(u)
        return y, pc

    return solve


def _pff_oracle(codec):
    """Precomputed joint solve of the self-protected block constraints."""
    cons = codec.cons
    m_side, r = cons.m_side, cons.r
    m2 = m_side - 2 * r
    colidx = np.argmax(perm_matrix(cons.pi), axis=0)
    n_unknown = 2 * r * m2 + 4 * r * r
    g_p = cons.code_row.g_p
    f_p = cons.code_col.g_p

    def split(u):
        sizes = [r * m2, r * m2, 2 * r * r, 2 * r * r]
        parts, off = [], 0
        for sz in sizes:
            parts.append(u[off : off + sz])
            off += sz
        y_full = np.hstack([unvec(parts[0], r, m2),
                            unvec(parts[2], r, 2 * r)])
        pc_full = np.hstack([unvec(parts[1], r, m2),
                             unvec(parts[3], r, 2 * r)])
        return y_full, pc_full

    def residual(u, m0, s_top, d_block):
        y_full, pc_full = split(u)
        s_blk = np.vstack([s_top, y_full, pc_full])
        col_msg = np.vstack([gf2.zeros(2 * r, m_side), m0, s_top, y_full])
        res_col = pc_full ^ gf2.mat_mul(f_p.T, col_msg)
        row_msg = np.hstack([s_blk[:, :m2], s_blk[:, m2 + colidx],
                             d_block, y_full.T])
        res_row = pc_full.T ^ gf2.mat_mul(row_msg, g_p)
        return np.concatenate([vec(res_col), vec(res_row)])

    zeros = [np.zeros((m_side, m_side), dtype=np.uint8),
             np.zeros((m2, m_side), dtype=np.uint8),
             np.zeros((m_side, m_side), dtype=np.uint8)]
    lmat = gf2.zeros(n_unknown, n_unknown)
    for j in range(n_unknown):
        e = np.zeros(n_unknown, dtype=np.uint8)
        e[j] = 1
        lmat[:, j] = residual(e, *zeros)
    lmat_inv = gf2.invert(lmat)

    def solve(m0, s_top, d_block):
        base = residual(np.zeros(n_unknown, dtype=np.uint8), m0, s_top,
                        d_block)
        u = gf2.mat_mul(lmat_inv, base)
        assert not residual(u, m0, s_top, d_block).any()
        y_full, pc_full = split(u)
        return np.vstack([s_top, y_full, pc_full])

    return solve


def test_criterion_04_oracle_equivalence(capsys):
    # the smallest t=2 column-protected construction with M > 2r uses m=7
    # (shorter fields leave no room for the self-protected block), so the
    # partial feed-forward check runs at m=7, t=2, s=41 instead of m=4, t=2
    ff_cons = search_construction(6, 1, 19, seed=0)
    pff_cons = search_pff_construction(7, 2, 41, seed=0)

    def body():
        ff = FFCode(ff_cons, 2, window=2, l_max=2)
        solve = _ff_oracle(ff_cons)
        m_side = ff_cons.m_side
        rng = np.random.default_rng(1)
        for _ in range(50):
            b0 = np.zeros((m_side, m_side), dtype=np.uint8)
            b1 = rng.integers(0, 2, (m_side, m_side), dtype=np.uint8)
            b2 = rng.integers(0, 2, (m_side, m_side), dtype=np.uint8)
            pair = ff.encode_pair(b0, b1, b2)
            y, pc = solve(b0, b1, b2)
            assert (pair.y == y).all() and (pair.pc == pc).all()

        pff = PFFCode(pff_cons, 1, 1, window=2, l_max=2)
        solve = _pff_oracle(pff)
        m_side, r = pff.M, pff.r
        for _ in range(50):
            m0 = rng.integers(0, 2, (m_side, m_side), dtype=np.uint8)
            s_top = rng.integers(0, 2, (m_side - 2 * r, m_side),
                                 dtype=np.uint8)
            d_block = rng.integers(0, 2, (m_side, m_side), dtype=np.uint8)
            s_blk = pff.encode_sp_pair(m0, s_top, d_block)
            assert (s_blk == solve(m0, s_top, d_block)).all()

    _run(capsys, 4, "staged encoders equal joint solve (50 payloads each)",
         body)


def test_criterion_05_noiseless_round_trip(capsys, table_ff, table_pff,
                                           table_sc_code):
    def body():
        rng = np.random.default_rng(2)
        codecs = [StaircaseCode(table_sc_code, 6, window=4, l_max=4),
                  FFCode(table_ff, 4, window=4, l_max=4),
                  FFCode(table_ff, 6, window=4, l_max=4)]
        codecs += [PFFCode(table_pff, L, 2, window=2 * (L + 1), l_max=4)
                   for L in (1, 2, 3)]
        for codec in codecs:
            payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
            frame = codec.encode_payload(payload)
            codec.decode_frame(frame)
            assert (codec.extract_payload(frame) == payload).all()

    _run(capsys, 5, "noiseless round trip (sc, ff even lengths, pff L=1..3)",
         body)


def test_criterion_06_stall_certificates(capsys, table_ff, table_pff,
                                         table_sc_code):
    def body():
        sc = StaircaseCode(table_sc_code, 6, window=4, l_max=8)
        pattern = gen_stall(sc, seed=0)
        assert pattern.weight == 16
        assert certify_stall(sc, pattern) == (True, True)

        ff = FFCode(table_ff, 4, window=4, l_max=8)
        pattern = gen_stall(ff, seed=0)
        assert pattern.weight == 8
        assert certify_stall(ff, pattern) == (True, True)

        pff = PFFCode(table_pff, 2, 3, window=6, l_max=8)
        pattern = gen_stall(pff, seed=0)
        assert pattern.weight == 16
        assert certify_stall(pff, pattern) == (True, True)

    _run(capsys, 6, "minimal t=3 stalls: fixed points, deletions corrected",
         body)


def test_criterion_07_parity_propagation_bound(capsys, table_pff):
    ff_cons = search_construction(6, 1, 1, seed=0)

    def ff_diff_extent(codec, bit):
        base = np.zeros(codec.payload_bits, dtype=np.uint8)
        flip = base.copy()
        flip[bit] = 1
        fa, fb = codec.encode_payload(base), codec.encode_payload(flip)
        blk = bit // (codec.M * codec.M) + 1
        containing = min(blk // 2, codec.n_pairs - 1)
        for i in range(codec.n_blocks + 1):
            diff = (fa.blocks[i] != fb.blocks[i]).sum()
            assert diff == (1 if i == blk else 0)
        for j in range(codec.n_pairs):
            changed = (fa.pairs[j].y != fb.pairs[j].y).any() \
                or (fa.pairs[j].pc != fb.pairs[j].pc).any()
            if j > containing:
                assert not changed

    def pff_diff_extent(codec, bit):
        base = np.zeros(codec.payload_bits, dtype=np.uint8)
        flip = base.copy()
        flip[bit] = 1
        fa, fb = codec.encode_payload(base), codec.encode_payload(flip)
        m_side, r, L = codec.M, codec.r, codec.L
        q, off = divmod(bit, codec.bits_per_period)
        d_start = codec.bits_per_period - m_side * m_side
        # a D-block bit doubles as the seed of the next period's chain, so
        # its containing period is the later of the two it participates in
        containing = q + 1 if off >= d_start else q
        last_ok = min(containing, codec.n_periods - 1) * (L + 1) + L + 1
        for i, (a, b) in enumerate(zip(fa.blocks, fb.blocks)):
            if i > last_ok:
                assert (a == b).all()

    def body():
        ff = FFCode(ff_cons, 6, window=4, l_max=4)
        per = ff.M * ff.M
        rng = np.random.default_rng(3)
        bits = [0, per - 1, per, 3 * per, ff.payload_bits - 1]
        bits += list(rng.integers(0, ff.payload_bits, 10))
        for bit in bits:
            ff_diff_extent(ff, int(bit))

        pff = PFFCode(table_pff, 2, 3, window=6, l_max=4)
        bpp = pff.bits_per_period
        rng = np.random.default_rng(4)
        bits = [0, bpp - 1, bpp, pff.payload_bits - 1,
                bpp - pff.M * pff.M]      # first bit of a D block
        bits += list(rng.integers(0, pff.payload_bits, 10))
        for bit in bits:
            pff_diff_extent(pff, int(bit))

    _run(capsys, 7, "one-bit payload diff confined (ff pair, pff period)",
         body)


def test_criterion_08_spreading_property(capsys):
    def body():
        for m_side in range(3, 65):
            for r in range(1, (m_side - 1) // 2 + 1):
                if 2 * r >= m_side:
                    continue
                s1, s2 = low_ef_shifts(m_side, r)
                t_rm = transpose_indices(r, m_side)
                idx1 = t_rm[shifted_block_indices(-s1, m_side)]
                idx2 = t_rm[shifted_block_indices(-s2, m_side)]
                # vec index of X (or Pr~) entry (row, col) is col*M + row;
                # the mirrored column-word index is the Y vec index // r
                p = np.arange(r)[None, :] * m_side + np.arange(m_side)[:, None]
                cols = np.concatenate([idx1[p] // r, idx2[p] // r], axis=1)
                member = np.zeros((m_side, m_side), dtype=np.int64)
                member[np.arange(m_side)[:, None], cols] = 1
                # same-row redundancy errors hit 2r distinct columns
                assert (member.sum(axis=1) == 2 * r).all()
                # pairwise valid-column-set overlaps stay within 2r
                assert (member @ member.T <= 2 * r).all()

    _run(capsys, 8, "spreading property, exhaustive M <= 64 with 2r < M",
         body)


def test_criterion_09_waterfall(capsys):
    def body():
        t0 = time.perf_counter()
        setups = [
            (partial(build_codec, "ff", 7, 2, 27, length=8, window=5,
                     l_max=6), (0.004, 0.006, 0.008, 0.010)),
            (partial(build_codec, "pff", 7, 2, 41, L=2, length=3, window=9,
                     l_max=6), (0.004, 0.006, 0.008, 0.010)),
        ]
        for factory, grid in setups:
            reports = [run_monte_carlo(factory, p, master_seed=0,
                                       min_bit_errors=50, max_frames=400,
                                       batch_frames=16, workers=8)
                       for p in grid]
            for p, rep in zip(grid, reports):
                assert rep.ber < p
            for lo, hi in zip(reports, reports[1:]):
                # BER must not decrease as p grows, up to CI slack
                assert lo.ber - lo.ber_ci95 <= hi.ber + hi.ber_ci95
        assert time.perf_counter() - t0 < 600

    _run(capsys, 9, "waterfall: monotone BER below input p, 4 points each",
         body)


def test_criterion_10_floor_consistency(capsys):
    def body():
        p = 3e-3
        factory = partial(build_codec, "ff", 6, 1, 1, length=8, window=5,
                          l_max=6)
        report = run_monte_carlo(factory, p, master_seed=0,
                                 min_bit_errors=10 ** 9, max_frames=6000,
                                 batch_frames=64, workers=8)
        predicted = ff_floor(25, 6, 1, p).bker
        assert report.block_errors > 0
        ratio = report.bker / predicted
        # approximate check only: t=1 miscorrections add stalls beyond the
        # minimal-pattern count, so agreement is within a factor of ten
        assert 0.1 <= ratio <= 10.0

    _run(capsys, 10, "t=1 floor estimate vs Monte Carlo within 10x", body)


def test_criterion_11_determinism(capsys):
    def body():
        factory = partial(build_codec, "ff", 7, 2, 27, length=8, window=5,
                          l_max=6)
        reports = [run_monte_carlo(factory, 0.008, master_seed=42,
                                   min_bit_errors=30, max_frames=200,
                                   batch_frames=16, workers=w)
                   for w in (1, 8)]
        a, b = (r.as_dict() for r in reports)
        for key in ("frames", "info_bits", "bit_errors", "blocks",
                    "block_errors", "ber", "bker"):
            assert a[key] == b[key]

    _run(capsys, 11, "identical reports for 1 and 8 workers", body)
