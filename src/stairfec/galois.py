"""
GF(2^m) arithmetic with log/antilog tables and binary polynomials.

Binary polynomials are carried as Python ints (bit i = coefficient of x^i),
which makes multiplication and long division plain shift/XOR loops.  The
default primitive polynomial per extension degree is fixed so that generator
polynomials, and everything derived from them, are bit-exact across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Poly2", "GaloisField", "DEFAULT_PRIMITIVE_POLYS", "minimal_polynomial"]

# Standard table of primitive polynomials over GF(2), one per degree.
# Encoded as ints including the leading bit, e.g. m=4: x^4+x+1 -> 0b10011.
DEFAULT_PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


@dataclass(frozen=True)
class Poly2:
    """Polynomial over GF(2), coefficients packed into an int (bit i = x^i)."""

    bits: int

    @classmethod
    def from_coeffs(cls, coeffs):
        """Build from coefficients in ascending degree order."""
        bits = 0
        for i, c in enumerate(coeffs):
            if int(c) & 1:
                bits |= 1 << i
        return cls(bits)

    @property
    def degree(self):
        return self.bits.bit_length() - 1

    def coeffs(self):
        """Coefficients in ascending degree order."""
        if self.bits == 0:
            return [0]
        return [(self.bits >> i) & 1 for i in range(self.degree + 1)]

    def __mul__(self, other):
        a, b, out = self.bits, other.bits, 0
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            b >>= 1
        return Poly2(out)

    def __add__(self, other):
        return Poly2(self.bits ^ other.bits)

    __sub__ = __add__

    def reciprocal(self):
        """x^deg(p) * p(1/x): the coefficient-reversed polynomial."""
        if self.bits == 0:
            return self
        d = self.degree
        out = 0
        for i in range(d + 1):
            if (self.bits >> i) & 1:
                out |= 1 << (d - i)
        return Poly2(out)


def poly_mod(a, b):
    """Remainder of carry-less division of a by b (ints as GF(2)[x])."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def poly_divmod(a, b):
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def poly_gcd(a, b):
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_lcm(a, b):
    g = poly_gcd(a, b)
    q, _ = poly_divmod(a, g)
    prod = Poly2(q) * Poly2(b)
    return prod.bits


class GaloisField:
    """GF(2^m) with log/antilog tables generated by a primitive polynomial.

    Elements are ints in [0, 2^m).  alpha (the class of x) is element 2 and
    is verified to be primitive at construction.
    """

    def __init__(self, m, primitive_poly=None):
        if not 2 <= m <= 16:
            raise ValueError("extension degree must be in [2, 16]")
        if primitive_poly is None:
            primitive_poly = DEFAULT_PRIMITIVE_POLYS[m]
        if primitive_poly.bit_length() - 1 != m:
            raise ValueError("primitive polynomial degree must equal m")
        self.m = m
        self.poly = primitive_poly
        self.order = (1 << m) - 1
        exp = np.zeros(2 * self.order, dtype=np.int64)
        log = np.zeros(1 << m, dtype=np.int64)
        x = 1
        for i in range(self.order):
            if x == 1 and i > 0:
                raise ValueError(
                    f"0x{primitive_poly:x} is not primitive over GF(2^{m})"
                )
            exp[i] = x
            log[x] = i
            x <<= 1
            if x >> m:
                x ^= primitive_poly
        if x != 1:
            raise ValueError(f"0x{primitive_poly:x} is not primitive over GF(2^{m})")
        exp[self.order : 2 * self.order] = exp[: self.order]
        self.exp = exp
        self.log = log

    @property
    def alpha(self):
        return 2

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self.exp[self.order - self.log[a]])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_alpha(self, e):
        """alpha**e for any integer exponent."""
        return int(self.exp[e % self.order])

    def conjugacy_class(self, e):
        """The set {e, e^2, e^4, ...} as a sorted tuple."""
        seen = []
        x = e
        while x not in seen:
            seen.append(x)
            x = self.mul(x, x)
        return tuple(sorted(seen))

    def eval_poly2(self, p, x):
        """Evaluate a GF(2)-coefficient polynomial at a field element."""
        acc = 0
        for c in reversed(p.coeffs()):
            acc = self.mul(acc, x) ^ (c & 1)
        return acc


def minimal_polynomial(field, e):
    """Minimal polynomial over GF(2) of a nonzero element of GF(2^m).

    Expands prod over the conjugacy class {e^(2^j)} of (x - conjugate); the
    result provably has coefficients in {0, 1}.
    """
    if e == 0:
        raise ValueError("zero has no minimal polynomial here")
    cls = field.conjugacy_class(e)
    # Coefficients over GF(2^m), ascending order; start from the constant 1.
    coeffs = [1]
    for c in cls:
        nxt = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i + 1] ^= a
            nxt[i] ^= field.mul(a, c)
        coeffs = nxt
    if any(a not in (0, 1) for a in coeffs):
        raise AssertionError("minimal polynomial left the prime field")
    return Poly2.from_coeffs(coeffs)
