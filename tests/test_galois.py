import math

import pytest

from reference import element_order
from stairfec.galois import (
    DEFAULT_PRIMITIVE_POLYS,
    GaloisField,
    Poly2,
    minimal_polynomial,
    poly_divmod,
    poly_gcd,
    poly_lcm,
    poly_mod,
)


def test_poly2_mul_against_integer_convolution():
    # (x^2 + 1)(x + 1) = x^3 + x^2 + x + 1
    assert (Poly2(0b101) * Poly2(0b11)).bits == 0b1111
    # (x + 1)^2 = x^2 + 1 over GF(2)
    assert (Poly2(0b11) * Poly2(0b11)).bits == 0b101


def test_poly_divmod_identity():
    for a in range(1, 200):
        for b in (0b11, 0b111, 0b1011):
            q, rem = poly_divmod(a, b)
            assert (Poly2(q) * Poly2(b) + Poly2(rem)).bits == a
            assert rem.bit_length() < b.bit_length()
            assert poly_mod(a, b) == rem


def test_poly_gcd_lcm():
    a = (Poly2(0b111) * Poly2(0b10)).bits   # (x^2+x+1) x
    b = (Poly2(0b111) * Poly2(0b11)).bits   # (x^2+x+1)(x+1)
    assert poly_gcd(a, b) == 0b111
    lcm = poly_lcm(a, b)
    assert poly_mod(lcm, a) == 0 and poly_mod(lcm, b) == 0
    assert Poly2(lcm).degree == Poly2(a).degree + Poly2(b).degree - 2


def test_reciprocal():
    p = Poly2(0b11001)  # x^4 + x^3 + 1
    assert p.reciprocal().bits == 0b10011  # x^4 + x + 1
    assert p.reciprocal().reciprocal().bits == p.bits


def test_field_tables_consistent():
    for m in (2, 3, 4, 8):
        f = GaloisField(m)
        assert f.exp[0] == 1
        for e in range(1, 1 << m):
            assert f.exp[f.log[e]] == e
        # alpha^i * alpha^j = alpha^(i+j)
        assert f.mul(f.pow_alpha(3), f.pow_alpha(5)) == f.pow_alpha(8)
        for e in range(1, 1 << m):
            assert f.mul(e, f.inv(e)) == 1


def test_non_primitive_poly_rejected():
    # x^4 + x^3 + x^2 + x + 1 has order-5 roots, not primitive
    with pytest.raises(ValueError):
        GaloisField(4, 0b11111)


def test_element_order():
    f = GaloisField(4)
    assert element_order(f, 1) == 1
    assert element_order(f, f.alpha) == 15
    assert element_order(f, f.pow_alpha(5)) == 3
    assert element_order(f, f.pow_alpha(3)) == 5


def test_conjugacy_class():
    f = GaloisField(4)
    cls = f.conjugacy_class(f.pow_alpha(1))
    # {alpha, alpha^2, alpha^4, alpha^8}
    assert set(cls) == {f.pow_alpha(i) for i in (1, 2, 4, 8)}
    assert f.conjugacy_class(1) == (1,)


def test_minimal_polynomials_gf16():
    f = GaloisField(4)
    assert minimal_polynomial(f, f.pow_alpha(1)).bits == 0b10011      # x^4+x+1
    assert minimal_polynomial(f, f.pow_alpha(3)).bits == 0b11111      # x^4+x^3+x^2+x+1
    assert minimal_polynomial(f, f.pow_alpha(5)).bits == 0b111        # x^2+x+1
    assert minimal_polynomial(f, 1).bits == 0b11                      # x+1


def test_minimal_polynomial_annihilates_element():
    for m in (3, 5, 6):
        f = GaloisField(m)
        for e in (f.pow_alpha(1), f.pow_alpha(3), f.pow_alpha(7)):
            p = minimal_polynomial(f, e)
            assert f.eval_poly2(p, e) == 0
            # degree divides m
            assert m % p.degree == 0


def test_default_polys_are_primitive():
    for m, poly in DEFAULT_PRIMITIVE_POLYS.items():
        if m > 12:
            continue  # table build gets slow, smaller degrees cover the logic
        GaloisField(m, poly)


def test_element_order_divides_group_order():
    f = GaloisField(5)
    for e in range(1, 32):
        assert (31) % element_order(f, e) == 0 or element_order(f, e) == 1
        assert math.gcd(element_order(f, e), 31) in (1, 31)
