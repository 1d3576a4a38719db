"""
Shortened primitive binary BCH component codes.

A component code is built from (m, t, s): block length n = 2^m - 1 - s,
k = n - m*t information bits, r = m*t parity bits.  Codewords are laid out
[information | parity] with word index i holding the coefficient of
x^(n-1-i); the s shortened positions are the leading information positions
of the parent code and are never transmitted or flipped.

Decoding is bounded-distance (BDD) and batched: ``decode_batch`` takes a
whole matrix of received words.  One float32 matmul against a bit table
gives every word's odd syndromes; the flagged words then run binary
Berlekamp-Massey together, in the log domain, and a Chien search looks their
locators' roots up in one exponent table.  A word's result depends on that
word alone, so a batch decodes exactly as its words would one by one.
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
        n, m, t, order = self.n, self.m, self.t, f.order
        degs = n - 1 - np.arange(n)
        # The reciprocal generator has roots alpha^-1..alpha^-2t, so the
        # whole decode chain runs on sign-flipped exponents for column codes.
        sign = -1 if self.reciprocal else 1
        # Bits of alpha^(sign*j*deg) for odd j < 2t, as float32 (exact for
        # n < 2**24); a binary word's even syndromes are S_2j = S_j^2.
        odd = f.exp[(sign * np.arange(1, 2 * t, 2)[:, None] * degs) % order]
        bits = (odd[:, :, None] >> np.arange(m)) & 1
        self._syndrome_table = np.ascontiguousarray(
            bits.transpose(1, 0, 2).reshape(n, t * m), dtype=np.float32)
        # Log 0 is a sentinel ``big`` and exp reads 0 from ``big`` on, so a
        # zero factor needs no mask: sums of true logs stay below ``big``.
        big = 4 * order
        self._log = f.log.copy()
        self._log[0] = big
        self._exp = np.zeros(2 * big + order + 1, dtype=np.int64)
        self._exp[:big] = f.exp[np.arange(big) % order]
        # Chien search: sigma's roots invert the locators alpha^(sign*deg),
        # so row j - 1 holds term j's exponent -sign*j*deg at each position.
        self._chien_exp = (-sign * np.arange(1, t + 1)[:, None] * degs) % order

    def _syndrome_bits(self, words):
        prod = np.asarray(words, dtype=np.float32) @ self._syndrome_table
        return prod.astype(np.int32) & 1

    def words_with_errors(self, words):
        """Boolean mask of rows whose syndrome is nonzero (batch test)."""
        return self._syndrome_bits(words).any(axis=1)

    def decode_batch(self, words):
        """Bounded-distance decode of every row of ``words`` at once.

        Returns ``(ok, rows, pos)``: ``ok[w]`` is False where row w has no
        codeword within distance t; accepted corrections flip position
        ``pos[i]`` of row ``rows[i]``.  Binary Berlekamp-Massey takes t steps
        (its odd discrepancies vanish); a row is accepted when L <= t and the
        Chien search finds L roots of sigma among the n positions.
        """
        bits = self._syndrome_bits(words)
        flagged = np.flatnonzero(bits.any(axis=1))
        ok = np.ones(len(bits), dtype=bool)
        if flagged.size == 0:
            return ok, flagged, flagged
        t, m, order = self.t, self.m, self.field.order
        log, exp = self._log, self._exp
        n_words = flagged.size
        synd = np.empty((n_words, 2 * t), dtype=np.int64)  # column j: S_(j+1)
        synd[:, ::2] = bits[flagged].reshape(n_words, t, m) @ (1 << np.arange(m))
        for j in range(2, 2 * t + 1, 2):
            synd[:, j - 1] = exp[2 * log[synd[:, j // 2 - 1]]]
        lsyn = log[synd]
        # sigma, and x^mshift B(x) with its shift folded in; both keep t + 1
        # coefficients, which is all a row that stays within L <= t needs
        sigma = np.zeros((n_words, t + 1), dtype=np.int64)
        sigma[:, 0] = 1
        shifted = np.zeros_like(sigma)
        shifted[:, 1] = 1
        L = np.zeros(n_words, dtype=np.int64)
        log_b = np.zeros(n_words, dtype=np.int64)  # log of the last discrepancy
        for i in range(0, 2 * t, 2):
            d = synd[:, i].copy()
            for j in range(1, min(i, t) + 1):
                d ^= exp[log[sigma[:, j]] + lsyn[:, i - j]]
            log_d = log[d]
            step = exp[(log_d - log_b + order)[:, None] + log[shifted]]
            grow = (d != 0) & (2 * L <= i)
            kept = np.where(grow[:, None], sigma, shifted)
            sigma ^= step
            shifted[:, 2:] = kept[:, :-2]
            shifted[:, :2] = 0
            L = np.where(grow, i + 1 - L, L)
            log_b = np.where(grow, log_d, log_b)
        # deg sigma = L needs no test: sigma has at most deg sigma <= L roots
        cand = np.flatnonzero(L <= t)
        lsig = log[sigma[cand]]
        value = 1  # sigma_0
        for j in range(1, t + 1):
            value = value ^ exp[lsig[:, j, None] + self._chien_exp[j - 1]]
        roots = value == 0
        found = np.count_nonzero(roots, axis=1) == L[cand]
        accepted = flagged[cand[found]]
        ok[flagged] = False
        ok[accepted] = True
        rows, pos = np.nonzero(roots[found])
        return ok, accepted[rows], pos

    def decode(self, word):
        """Bounded-distance decode; Failure leaves the word unmodified."""
        word = np.asarray(word, dtype=np.uint8).reshape(-1)
        if word.size != self.n:
            raise ValueError(f"word must have {self.n} bits, got {word.size}")
        ok, _, pos = self.decode_batch(word[None, :])
        if not ok[0]:
            return DecodeResult(False, word, ())
        fixed = word.copy()
        fixed[pos] ^= 1
        return DecodeResult(True, fixed, tuple(pos.tolist()))

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
