"""
GF(2^m) as log/antilog tables.

An element is an int in [0, 2^m) whose bit i is the coefficient of alpha^i,
alpha being the class of x modulo the field's primitive polynomial.  That
polynomial is fixed per extension degree (``DEFAULT_PRIMITIVE_POLYS``), so
generator polynomials, and everything derived from them, are bit-exact
across runs; :func:`field` keeps one field per m for the process.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["GaloisField", "DEFAULT_PRIMITIVE_POLYS", "field"]

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


class GaloisField:
    """GF(2^m) generated by ``DEFAULT_PRIMITIVE_POLYS[m]``.

    ``exp[i]`` is alpha^i for i in [0, 2N), N = 2^m - 1, so a sum of two
    logs needs no reduction; ``log[a]`` is the exponent of a nonzero a.
    alpha is verified to be primitive at construction, and both tables are
    read-only.
    """

    def __init__(self, m):
        if not 2 <= m <= 16:
            raise ValueError("extension degree must be in [2, 16]")
        poly = DEFAULT_PRIMITIVE_POLYS[m]
        self.m = m
        self.poly = poly
        self.order = (1 << m) - 1
        exp = np.zeros(2 * self.order, dtype=np.int64)
        log = np.zeros(1 << m, dtype=np.int64)
        x = 1
        for i in range(self.order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x >> m:
                x ^= poly
        # alpha is primitive: alpha^N = 1 and no smaller power is 1
        if x != 1 or (exp[1 : self.order] == 1).any():
            raise ValueError(f"0x{poly:x} is not primitive over GF(2^{m})")
        exp[self.order :] = exp[: self.order]
        exp.setflags(write=False)
        log.setflags(write=False)
        self.exp = exp
        self.log = log


@functools.cache
def field(m):
    """The process's one :class:`GaloisField` of degree m."""
    return GaloisField(m)
