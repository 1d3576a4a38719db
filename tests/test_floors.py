import math
from fractions import Fraction

import numpy as np
import pytest

from reference import valid_column_set
from stairfec.bch import ComponentCode
from stairfec.ff import FFCode, search_construction
from stairfec.floors import (
    apply_stall,
    binary_entropy,
    certify_stall,
    entropy_inv,
    ff_floor,
    gen_stall,
    ncg_gap,
    pff_floor,
    sc_floor,
)
from stairfec.pff import PFFCode, search_pff_construction
from stairfec.staircase import StaircaseCode

NCG_TABLE = [
    (Fraction(3, 4), 1.82e-2, 1.64),
    (Fraction(4, 5), 1.56e-2, 1.25),
    (Fraction(5, 6), 1.30e-2, 1.07),
    (Fraction(13, 14), 4.80e-3, 0.73),
]


def test_entropy_round_trip():
    for p in (1e-6, 1e-3, 0.11, 0.4999):
        assert entropy_inv(binary_entropy(p)) == pytest.approx(p, rel=1e-9)
    with pytest.raises(ValueError):
        binary_entropy(0)
    with pytest.raises(ValueError):
        entropy_inv(0)


@pytest.mark.parametrize("y", [1e-14, 1e-100, 1e-300])
def test_entropy_inv_keeps_relative_precision_at_tiny_values(y):
    p = entropy_inv(y)
    assert 0 < p < y
    assert binary_entropy(p) == pytest.approx(y, rel=1e-12)


def test_binary_entropy_keeps_its_linear_term_at_tiny_p():
    # h(p) = p log2(1/p) + p / ln 2 + O(p^2): 1 - p rounds to 1 here
    p = 1e-300
    expect = p * math.log2(1 / p) + p / math.log(2)
    assert binary_entropy(p) == pytest.approx(expect, rel=1e-12)


def test_floor_estimates_are_capped_at_one():
    for est in (sc_floor(72, 3, 0.5), pff_floor(96, 3, 0.5),
                ff_floor(72, 24, 3, 0.5)):
        assert est.bker == 1.0 and est.ber == 1.0
    # below the cap the union bound is untouched
    est = sc_floor(72, 3, 0.01)
    assert 0 < est.ber < est.bker < 1e-17


@pytest.mark.parametrize("rate,p15,expect", NCG_TABLE)
def test_ncg_gap_table(rate, p15, expect):
    assert ncg_gap(rate, p15) == pytest.approx(expect, abs=0.02)


def test_floor_formulas_hand_values():
    # t=1: t_i = t_r = 1, weight 2
    est = ff_floor(25, 6, 1, 1e-3)
    assert est.weight == 2
    assert est.bker == pytest.approx(25 * 12 * 1e-6)
    assert est.ber == pytest.approx(est.bker / 625)
    # square floor at t=1: weight 4, sum_{k=0}^{1} C(M,k)C(M,2-k)
    est = sc_floor(7, 1, 1e-2)
    expect = math.comb(7, 2) * (math.comb(7, 2) + 7 * 7) * 1e-8
    assert est.bker == pytest.approx(expect)
    assert pff_floor(7, 1, 1e-2).bker == pytest.approx(expect)


def test_floor_scaling_exponent():
    for p1, p2 in [(1e-2, 1e-3)]:
        e1, e2 = ff_floor(72, 24, 3, p1), ff_floor(72, 24, 3, p2)
        assert e1.bker / e2.bker == pytest.approx((p1 / p2) ** 8)
        s1, s2 = pff_floor(96, 3, p1), pff_floor(96, 3, p2)
        assert s1.bker / s2.bker == pytest.approx((p1 / p2) ** 16)


def test_valid_column_set():
    s = valid_column_set(3, 25, 6)
    assert s == {(3 + 1 + j) % 25 for j in range(12)}
    assert len(s) == 12
    # wraps around
    assert 0 in valid_column_set(24, 25, 6)


def test_sc_stall_certificate():
    # t=1 components miscorrect nearly every (t+1)-error word, so certified
    # stalls need t >= 2 where bounded-distance failure dominates
    code = ComponentCode(5, 2, 1)   # n=30, M=15
    sc = StaircaseCode(code, 6, window=4, l_max=6)
    pattern = gen_stall(sc, seed=1)
    assert pattern.weight == 9
    fixed, minimal = certify_stall(sc, pattern)
    assert fixed and minimal


def test_ff_stall_certificate():
    cons = search_construction(7, 2, 27, seed=0)   # M=36, r=14
    ff = FFCode(cons, 4, window=4, l_max=6)
    pattern = gen_stall(ff, seed=1)
    assert pattern.weight == 6   # t_r (t+1) with t=2
    fixed, minimal = certify_stall(ff, pattern)
    assert fixed and minimal


def test_pff_stall_certificate():
    cons = search_pff_construction(7, 2, 41, seed=0)
    pff = PFFCode(cons, 2, 3, window=6, l_max=6)
    pattern = gen_stall(pff, seed=1)
    assert pattern.weight == 9
    fixed, minimal = certify_stall(pff, pattern)
    assert fixed and minimal


def test_apply_stall_is_involution():
    code = ComponentCode(5, 2, 1)
    sc = StaircaseCode(code, 6, window=4, l_max=4)
    pattern = gen_stall(sc, seed=0)
    payload = np.zeros(sc.payload_bits, dtype=np.uint8)
    frame = sc.encode_payload(payload)
    before = [a.copy() for a in sc.channel_arrays(frame)]
    apply_stall(sc, frame, pattern)
    apply_stall(sc, frame, pattern)
    after = sc.channel_arrays(frame)
    assert all((a == b).all() for a, b in zip(after, before))


def test_certify_rejects_correctable_pattern():
    # a single error is not a stall: the decoder fixes it
    from stairfec.floors import StallPattern

    code = ComponentCode(4, 1, 1)
    sc = StaircaseCode(code, 6, window=4, l_max=4)
    pattern = StallPattern("sc", (int(sc.slot_frame().blocks[3][1, 1]),))
    fixed, _ = certify_stall(sc, pattern)
    assert not fixed
