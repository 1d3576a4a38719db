"""
Shortened primitive binary BCH component codes.

A component code is built from (m, t, s): block length n = 2^m - 1 - s,
k = n - m*t information bits, r = m*t parity bits.  Codewords are laid out
[information | parity] with word index i holding the coefficient of
x^(n-1-i); the s shortened positions are the leading information positions
of the parent code and are never transmitted or flipped.

Decoding is bounded-distance: syndromes, Berlekamp-Massey, Chien search.
Miscorrections are applied, not suppressed; error-floor behaviour depends
on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .galois import GaloisField, Poly2, minimal_polynomial, poly_lcm, poly_mod

__all__ = [
    "bch_generator",
    "reciprocal_generator",
    "ComponentCode",
    "ParityPartition",
    "DecodeResult",
]


def bch_generator(field, t):
    """Generator polynomial: LCM of the minimal polynomials of alpha^1..alpha^2t.

    (The product over distinct conjugacy classes; taking the literal product
    over i would double-count conjugates.)
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    g = 1
    seen = set()
    for i in range(1, 2 * t + 1):
        e = field.pow_alpha(i)
        cls = field.conjugacy_class(e)
        if cls in seen:
            continue
        seen.add(cls)
        g = poly_lcm(g, minimal_polynomial(field, e).bits)
    return Poly2(g)


def reciprocal_generator(g):
    """Reciprocal polynomial x^deg(g) * g(1/x); requires g(0) = 1."""
    if g.bits & 1 == 0:
        raise ValueError("generator must have nonzero constant term")
    return g.reciprocal()


@dataclass(frozen=True)
class ParityPartition:
    """G_p split into the information part (k-r rows) and the tail (r rows)."""

    g_i: np.ndarray
    g_r: np.ndarray

    @property
    def g_p(self):
        return np.vstack([self.g_i, self.g_r])


@dataclass(frozen=True)
class DecodeResult:
    ok: bool
    word: np.ndarray
    flips: tuple


class ComponentCode:
    """Shortened primitive BCH code with systematic encode and BDD decode."""

    def __init__(self, m, t, s, *, role="row", reciprocal=False, field=None,
                 primitive_poly=None):
        if field is None:
            field = GaloisField(m, primitive_poly)
        if field.m != m:
            raise ValueError("field degree does not match m")
        if s < 0:
            raise ValueError("shortening must be non-negative")
        self.field = field
        self.m = m
        self.t = t
        self.s = s
        self.role = role
        self.n_full = (1 << m) - 1
        self.n = self.n_full - s
        self.r = m * t
        self.k = self.n - self.r
        if self.k <= 0:
            raise ValueError(f"(m={m}, t={t}, s={s}) leaves no information bits")
        gen = bch_generator(field, t)
        if gen.degree != m * t:
            raise ValueError(
                f"generator degree {gen.degree} != m*t={m * t}; "
                "parameter combination is outside the primitive-BCH family"
            )
        self.gen = gen.reciprocal() if reciprocal else gen
        self.reciprocal = reciprocal
        self._gen_bits = self.gen.bits
        self._build_parity_matrix()
        self._build_decode_tables()

    # -- encoding ---------------------------------------------------------

    def _msg_int(self, msg):
        bits = np.asarray(msg, dtype=np.uint8).reshape(-1)
        if bits.size != self.k:
            raise ValueError(f"message must have {self.k} bits, got {bits.size}")
        val = 0
        for i in np.nonzero(bits)[0]:
            val |= 1 << (self.n - 1 - int(i))
        return val

    def _build_parity_matrix(self):
        k, r = self.k, self.r
        g_p = gf2.zeros(k, r)
        for j in range(k):
            parity = poly_mod(1 << (self.n - 1 - j), self._gen_bits)
            for l in range(r):
                g_p[j, l] = (parity >> (r - 1 - l)) & 1
        self.g_p = g_p

    def systematic_encode(self, msg):
        """Codeword [msg | parity] with parity = x^r * msg(x) mod gen."""
        bits = np.asarray(msg, dtype=np.uint8).reshape(-1)
        parity = gf2.mat_mul(bits, self.g_p)
        return np.concatenate([bits, parity])

    def parity_partition(self):
        if self.k <= self.r:
            raise ValueError("partition needs k > r")
        return ParityPartition(g_i=self.g_p[: self.k - self.r].copy(),
                               g_r=self.g_p[self.k - self.r :].copy())

    # -- decoding ---------------------------------------------------------

    def _build_decode_tables(self):
        f = self.field
        n, m, t = self.n, self.m, self.t
        order = f.order
        degs = n - 1 - np.arange(n)
        # The reciprocal generator has roots alpha^-1..alpha^-2t, so the
        # whole decode chain runs on sign-flipped exponents for column codes.
        self._sign = -1 if self.reciprocal else 1
        # alpha^(sign*j*deg) for j=1..2t as field ints, shape (2t, n)
        js = self._sign * np.arange(1, 2 * t + 1)[:, None]
        self._pos_power = f.exp[(js * degs[None, :]) % order]
        # Same table bit-decomposed: (n, 2t*m) uint8, for batch syndrome tests.
        shifted = (self._pos_power[:, :, None] >> np.arange(m)) & 1
        self._syndrome_bits = (
            shifted.astype(np.uint8).transpose(1, 0, 2).reshape(n, 2 * t * m)
        )

    def syndromes(self, word):
        """Syndromes S_1..S_2t as field ints."""
        idx = np.nonzero(np.asarray(word, dtype=np.uint8))[0]
        if idx.size == 0:
            return [0] * (2 * self.t)
        sel = self._pos_power[:, idx]
        return [int(v) for v in np.bitwise_xor.reduce(sel, axis=1)]

    def words_with_errors(self, words):
        """Boolean mask of rows whose syndrome is nonzero (batch test)."""
        words = np.asarray(words, dtype=np.uint8)
        synd = gf2.mat_mul(words, self._syndrome_bits)
        return synd.any(axis=1)

    def _berlekamp_massey(self, synd):
        f = self.field
        c = [1]
        b = [1]
        L, mshift, bb = 0, 1, 1
        for i, s in enumerate(synd):
            d = s
            for j in range(1, L + 1):
                if j < len(c) and c[j]:
                    d ^= f.mul(c[j], synd[i - j])
            if d == 0:
                mshift += 1
            elif 2 * L <= i:
                tmp = list(c)
                coef = f.div(d, bb)
                shifted = [0] * mshift + [f.mul(coef, x) for x in b]
                if len(shifted) > len(c):
                    c = c + [0] * (len(shifted) - len(c))
                for j, x in enumerate(shifted):
                    c[j] ^= x
                L = i + 1 - L
                b = tmp
                bb = d
                mshift = 1
            else:
                coef = f.div(d, bb)
                shifted = [0] * mshift + [f.mul(coef, x) for x in b]
                if len(shifted) > len(c):
                    c = c + [0] * (len(shifted) - len(c))
                for j, x in enumerate(shifted):
                    c[j] ^= x
                mshift += 1
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return c, L

    def _chien(self, sigma):
        """Degrees l in [0, n) where the error locator has a root.

        Locators are X_i = alpha^(sign*l_i); sigma's roots are their
        inverses, so evaluate sigma at alpha^(-sign*l).
        """
        f = self.field
        order = f.order
        ls = np.arange(self.n)
        acc = np.zeros(self.n, dtype=np.int64)
        for j, coef in enumerate(sigma):
            if coef == 0:
                continue
            logc = int(f.log[coef])
            acc ^= f.exp[(logc - j * self._sign * ls) % order]
        return np.nonzero(acc == 0)[0]

    def decode(self, word):
        """Bounded-distance decode; Failure leaves the word unmodified."""
        word = np.asarray(word, dtype=np.uint8).reshape(-1)
        if word.size != self.n:
            raise ValueError(f"word must have {self.n} bits, got {word.size}")
        synd = self.syndromes(word)
        if not any(synd):
            return DecodeResult(True, word, ())
        sigma, L = self._berlekamp_massey(synd)
        if L > self.t or len(sigma) - 1 != L:
            return DecodeResult(False, word, ())
        roots = self._chien(sigma)
        if roots.size != L:
            return DecodeResult(False, word, ())
        flips = tuple(int(self.n - 1 - l) for l in roots)
        fixed = word.copy()
        fixed[list(flips)] ^= 1
        return DecodeResult(True, fixed, flips)

    # -- descriptors ------------------------------------------------------

    @property
    def rate(self):
        return self.k / self.n

    def descriptor(self):
        """JSON-serializable descriptor used for cache validation."""
        return {
            "m": self.m,
            "t": self.t,
            "s": self.s,
            "role": self.role,
            "reciprocal": self.reciprocal,
            "primitive_poly": hex(self.field.poly),
            "generator": hex(self.gen.bits),
        }

    def __repr__(self):
        return (f"ComponentCode(m={self.m}, t={self.t}, s={self.s}, "
                f"n={self.n}, k={self.k}, role={self.role!r})")
