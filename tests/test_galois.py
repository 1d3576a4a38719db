import math

import pytest

from reference import div, element_order, mul, poly_mod, pow_alpha
from stairfec import galois
from stairfec.bch import bch_generator
from stairfec.galois import DEFAULT_PRIMITIVE_POLYS, GaloisField


def clmul(a, b):
    """Carry-less product of binary polynomials as ints."""
    out = 0
    for j in range(b.bit_length()):
        if b >> j & 1:
            out ^= a << j
    return out


def test_poly_divmod_identity():
    """The oracle's carry-less remainder: a = q b + r with deg r < deg b."""
    for b in (0b11, 0b111, 0b1011):
        for q in range(0, 40):
            for r in range(1 << (b.bit_length() - 1)):
                assert poly_mod(clmul(q, b) ^ r, b) == r
    with pytest.raises(ZeroDivisionError):
        poly_mod(0b101, 0)


def test_field_tables_consistent():
    for m in (2, 3, 4, 8):
        f = GaloisField(m)
        assert f.exp[0] == 1
        for e in range(1, 1 << m):
            assert f.exp[f.log[e]] == e
        # alpha^i * alpha^j = alpha^(i+j)
        assert mul(f, pow_alpha(f, 3), pow_alpha(f, 5)) == pow_alpha(f, 8)
        for e in range(1, 1 << m):
            assert mul(f, e, div(f, 1, e)) == 1


def test_non_primitive_poly_rejected(monkeypatch):
    # x^4 + x^3 + x^2 + x + 1 has order-5 roots, not primitive
    monkeypatch.setitem(DEFAULT_PRIMITIVE_POLYS, 4, 0b11111)
    with pytest.raises(ValueError, match="not primitive"):
        GaloisField(4)


def test_minimal_polynomials_gf16():
    """The generators of GF(16) multiply in one minimal polynomial per
    new cyclotomic coset: of alpha, then alpha^3, then alpha^5."""
    f = GaloisField(4)
    m1, m3, m5 = 0b10011, 0b11111, 0b111  # x^4+x+1, x^4+x^3+x^2+x+1, x^2+x+1
    assert bch_generator(f, 1) == m1
    assert bch_generator(f, 2) == clmul(m1, m3)
    assert bch_generator(f, 3) == clmul(clmul(m1, m3), m5)


def test_element_order():
    f = GaloisField(4)
    assert element_order(f, 1) == 1
    assert element_order(f, pow_alpha(f, 1)) == 15
    assert element_order(f, pow_alpha(f, 5)) == 3
    assert element_order(f, pow_alpha(f, 3)) == 5


def test_default_polys_are_primitive():
    for m, poly in DEFAULT_PRIMITIVE_POLYS.items():
        if m > 12:
            continue  # table build gets slow, smaller degrees cover the logic
        f = GaloisField(m)
        assert f.poly == poly
        # alpha's powers run through every nonzero element once
        assert sorted(f.exp[: f.order].tolist()) == list(range(1, 1 << m))


def test_one_read_only_field_per_degree():
    f = galois.field(6)
    assert galois.field(6) is f and galois.field(5) is not f
    assert f.m == 6 and f.poly == DEFAULT_PRIMITIVE_POLYS[6]
    for table in (f.exp, f.log):
        with pytest.raises(ValueError):
            table[1] = 0
    with pytest.raises(ValueError):
        galois.field(17)


def test_element_order_divides_group_order():
    f = GaloisField(5)
    for e in range(1, 32):
        assert (31) % element_order(f, e) == 0 or element_order(f, e) == 1
        assert math.gcd(element_order(f, e), 31) in (1, 31)
