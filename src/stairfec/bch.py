"""
Shortened primitive binary BCH component codes.

A component code is built from (m, t, s): block length n = 2^m - 1 - s,
k = n - m*t information bits, r = m*t parity bits.  Codewords are laid out
[information | parity] with word index i holding the coefficient of
x^(n-1-i); the s shortened positions are the leading information positions
of the parent code and are never transmitted or flipped.  The generator
g(x) is the product of (x + alpha^e) over the cyclotomic cosets of
1..2t in GF(2^m) (``bch_generator``), carried as an int (bit i = x^i); a
column code uses its bit reversal.  Every code of degree m works over the
process's one field of that degree (``galois.field``).

Decoding is bounded-distance (BDD) and works from syndromes.  A word's odd
syndromes S_1, S_3, ..., S_(2t-1) come from one float32 matmul against a
bit table, packed into its key (``syndrome_keys``): m bits per syndrome,
S_1 lowest, floor(64/m) syndromes per uint64, so ``key_words`` =
ceil(t / floor(64/m)) words, one for every code with t*m <= 64.  The even
syndromes follow from S_2j = S_j^2.  Keys are linear: a unit error at
position i has the key ``column_keys[i]``, and a caller that keeps keys
updates them per flip by XOR.  ``decode_syndromes`` decodes a batch of
words known by their keys, unpacking the syndromes it needs
(``key_fields``), and ``decode`` one received word.  A word's result
depends on that word alone, so a batch decodes exactly as its words would
one by one.

BDD returns a ``(words, t)`` matrix of positions, the same for both
decoders: a word's corrections in any order, ``n`` in each unused column,
and a failed word (no codeword within distance t, or one whose pattern
needs a shortened position) reads ``n + 1`` somewhere in its row.  A
caller that appends to each word a column of no-op and a column of vetoed
positions reads a batch's flips and failures with one gather.

A table code decodes by one lookup in its direct-indexed syndrome table
(:func:`build_syndrome_table`), which holds the error patterns of weight
<= t of the parent cyclic code of length N = 2^m - 1; a pattern's locators
are alpha^e for exponents e in [0, N).  Shifting a pattern cyclically by j
multiplies each S_k by alpha^(k*j), so a word with S_1 = alpha^j is
looked up with each S_k scaled by alpha^(-k*j), which makes S_1 = 1, and
the locators found are shifted back by j; a word with S_1 = 0 is looked up
as it is.  The table is indexed by those normalised odd syndromes: S_1 in
{0, 1} in bit 0 and S_3, S_5, ..., S_(2t-1) m bits apiece above it, so it
has 2^(1 + (t-1)m) rows (2^17 for m = 8, t = 3), and a row without a
pattern reads as a failure.  The table depends on m and t alone, so the
row and column codes of every n share one per process
(:func:`syndrome_table`).  A code whose table would exceed
``TABLE_BYTES`` (:func:`table_bytes`) decodes by binary Berlekamp-Massey
and a Chien search instead (``berlekamp_chien``); the two give the same
result for every syndrome.
Miscorrections are applied, not suppressed; error-floor behaviour depends
on them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import galois, gf2

__all__ = [
    "bch_generator",
    "ComponentCode",
    "code_pair",
    "DecodeResult",
    "build_syndrome_table",
    "syndrome_table",
    "table_bytes",
    "TABLE_BYTES",
]

# Largest table_bytes of a code that decodes by syndrome table: (8, 3) has
# 0.79 MB and (10, 3) 12.6 MB, while (11, 3), (8, 4), (7, 4) and (6, 5)
# decode by Berlekamp-Massey.  A table then has at most 2^23 rows.
TABLE_BYTES = 16 << 20


def bch_generator(field, t):
    """The generator of the primitive BCH code of radius t over ``field``,
    as an int (bit i = coefficient of x^i).

    g(x) is the product of (x + alpha^e) over the union of the cyclotomic
    cosets {i * 2^j mod N} of i = 1..2t.  Each coset's factor, the minimal
    polynomial of alpha^i, is multiplied out on field ints through the
    exp/log tables, has binary coefficients, and enters g carry-less.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    order, exp, log = field.order, field.exp, field.log
    g, seen = 1, set()
    for i in range(1, 2 * t + 1):
        if i in seen:
            continue
        coset = [i]
        while (e := 2 * coset[-1] % order) != i:
            coset.append(e)
        seen.update(coset)
        factor = [1]  # ascending coefficients, field ints
        for e in coset:
            nxt = [0, *factor]
            for j, c in enumerate(factor):
                if c:
                    nxt[j] ^= exp[log[c] + e]
            factor = nxt
        if any(c >> 1 for c in factor):
            raise AssertionError("minimal polynomial left the prime field")
        product = 0
        for j, c in enumerate(factor):
            if c:
                product ^= g << j
        g = product
    return g


@dataclass(frozen=True)
class DecodeResult:
    ok: bool
    word: np.ndarray
    flips: tuple


def _locator_type(order):
    """The dtype of a syndrome table's entries: an exponent below N, the
    pad 2N or the failure 3N, each plus a shift below N."""
    return np.min_scalar_type(4 * order)


def table_bytes(m, t):
    """Bytes of the syndrome table of (m, t): t entries for each of its
    2^(1 + (t-1)m) rows."""
    return (2 << (t - 1) * m) * t * _locator_type((1 << m) - 1).itemsize


def _increasing(order, k, chunk=1 << 12):
    """Every strictly increasing k-tuple of range(order), in blocks of at
    most ``chunk`` rows, or of the tuples of one first entry where those
    alone are more."""
    if k == 0:
        yield np.zeros((1, 0), dtype=np.intp)
        return
    # the tuples starting at f number C(order - 1 - f, k - 1)
    ends = np.cumsum([math.comb(order - 1 - f, k - 1)
                      for f in range(order - k + 1)])
    f0 = 0
    while f0 < len(ends):
        done = ends[f0 - 1] if f0 else 0
        f1 = max(f0 + 1, int(np.searchsorted(ends, done + chunk, "right")))
        tuples = np.arange(f0, f1)[:, None]
        for _ in range(k - 1):
            # each tuple goes on with every entry above its last
            last = tuples[:, -1]
            counts = order - 1 - last
            row = np.repeat(np.arange(len(tuples)), counts)
            step = np.arange(len(row)) - (np.cumsum(counts) - counts)[row]
            tuples = np.column_stack([tuples[row], last[row] + 1 + step])
        yield tuples
        f0 = f1


def build_syndrome_table(field, t):
    """The direct-indexed syndrome table of ``field`` and radius ``t``.

    Row ``S_1 | S_3 << 1 | S_5 << (1 + m) | ...``, for S_1 in {0, 1} and
    S_3, S_5, ..., S_(2t-1) m bits apiece, holds the t locator exponents of
    the pattern of weight <= t with those odd syndromes: its exponents in
    [0, N), then the pad 2N; a row that no such pattern has holds the
    failure 3N throughout.  A pattern of weight w with a given S_1 is a
    choice of w - 1 exponents; the last locator is S_1 plus theirs, and
    the pattern is kept once, when that locator's exponent is the largest.
    No two patterns of weight <= t share their syndromes, since the parent
    code has distance >= 2t + 1.  The choices go in blocks of at most 4096
    (:func:`_increasing`), so the build holds no large temporary array
    besides the table.
    """
    order, m = field.order, field.m
    pad, fail = 2 * order, 3 * order
    table = np.full((2 << (t - 1) * m, t), fail, dtype=_locator_type(order))
    table[0] = pad  # the empty pattern
    kept = 1
    odd = np.arange(3, 2 * t, 2)[:, None, None]
    weights = np.left_shift(2, m * np.arange(t - 1), dtype=np.int64)
    for w in range(1, t + 1):
        for chosen in _increasing(order, w - 1):
            rest = np.bitwise_xor.reduce(field.exp[chosen], axis=1)
            for s1 in (1, 0):
                last = s1 ^ rest
                keep = last != 0
                last = field.log[last]
                if w > 1:
                    keep &= last > chosen[:, -1]
                locs = np.full((np.count_nonzero(keep), t), pad)
                locs[:, : w - 1] = chosen[keep]
                locs[:, w - 1] = last[keep]
                synd = np.bitwise_xor.reduce(
                    field.exp[odd * locs[:, :w] % order], axis=2)
                table[s1 + weights @ synd] = locs
                kept += len(locs)
    if np.count_nonzero(table[:, 0] != fail) != kept:
        raise AssertionError(f"two patterns of weight <= {t} share their "
                             f"syndromes over GF(2^{m})")
    table.setflags(write=False)
    return table


@gf2.memoize
def syndrome_table(m, t):
    """The :func:`build_syndrome_table` table over GF(2^m); a process
    builds one per ``(m, t)`` while it fits :func:`gf2.memoize`'s budget."""
    return build_syndrome_table(galois.field(m), t)


class ComponentCode:
    """Shortened primitive BCH code with systematic encode and BDD decode.

    A ``reciprocal`` code, the column code of an FF or PFF construction,
    has the reversed generator x^(mt) g(1/x), whose roots are alpha^-1 ..
    alpha^-2t; its ``role`` is "col", a row code's "row".
    """

    def __init__(self, m, t, s, *, reciprocal=False):
        if s < 0:
            raise ValueError("shortening must be non-negative")
        self.field = galois.field(m)
        self.m = m
        self.t = t
        self.s = s
        self.role = "col" if reciprocal else "row"
        self.n_full = (1 << m) - 1
        self.n = self.n_full - s
        self.r = m * t
        self.k = self.n - self.r
        if self.k <= 0:
            raise ValueError(f"(m={m}, t={t}, s={s}) leaves no information bits")
        gen = bch_generator(self.field, t)
        degree = gen.bit_length() - 1
        if degree != m * t:
            raise ValueError(
                f"generator degree {degree} != m*t={m * t}; "
                "parameter combination is outside the primitive-BCH family"
            )
        # g(0) = 1, so reversing the bits keeps the degree
        self.gen = int(bin(gen)[:1:-1], 2) if reciprocal else gen
        self.reciprocal = reciprocal
        self._build_parity_matrix()
        self._build_decode_tables()
        gf2.freeze(self)

    # -- encoding ---------------------------------------------------------

    def _build_parity_matrix(self):
        """Row j holds x^(n-1-j) mod gen, highest power first."""
        k, r, gen = self.k, self.r, self.gen
        rems = []
        rem = gen ^ (1 << r)  # x^r mod gen; then x^(e+1) = x * x^e
        for _ in range(k):
            rems.append(rem)
            rem <<= 1
            if rem >> r:
                rem ^= gen
        width = -(-r // 8)
        packed = np.frombuffer(
            b"".join(x.to_bytes(width, "big") for x in reversed(rems)),
            dtype=np.uint8).reshape(k, width)
        self.g_p = np.ascontiguousarray(
            np.unpackbits(packed, axis=1)[:, 8 * width - r :])

    def systematic_encode(self, msg):
        """Codeword [msg | parity] with parity = x^r * msg(x) mod gen."""
        bits = np.asarray(msg, dtype=np.uint8).reshape(-1)
        parity = gf2.mat_mul(bits, self.g_p)
        return np.concatenate([bits, parity])

    # -- decoding ---------------------------------------------------------

    def _build_decode_tables(self):
        f = self.field
        n, m, t, order = self.n, self.m, self.t, f.order
        degs = n - 1 - np.arange(n)
        # The reciprocal generator has roots alpha^-1..alpha^-2t, so the
        # whole decode chain runs on sign-flipped exponents for column codes.
        sign = -1 if self.reciprocal else 1
        # alpha^(sign*j*deg) for odd j < 2t: the odd syndromes of a unit
        # error at each position, as float32 bits (exact for n < 2**24); a
        # binary word's even syndromes are S_2j = S_j^2.
        odd = f.exp[(sign * np.arange(1, 2 * t, 2)[:, None] * degs) % order]
        bits = (odd[:, :, None] >> np.arange(m)) & 1
        self._check_bits = np.ascontiguousarray(
            bits.transpose(1, 0, 2).reshape(n, t * m), dtype=np.float32)
        # A key packs S_1, S_3, ... m bits apiece, S_1 lowest, into
        # key_words uint64 words of 64 // m fields each.  Bit b of field j
        # is bit shift[j] + b of word word[j].
        per_word = 64 // m
        self.key_words = -(-t // per_word)
        word = np.arange(t) // per_word
        self._field_shift = np.arange(t) % per_word * m
        self._field_mask = (1 << m) - 1
        # a one-word key broadcasts against the shifts, with no gather
        self._field_word = slice(0, 1) if self.key_words == 1 else word
        key_bits = np.zeros((t * m, self.key_words), dtype=np.uint64)
        key_bits[np.arange(t * m), word.repeat(m)] = [
            1 << (int(self._field_shift[i // m]) + i % m)
            for i in range(t * m)]
        self._key_bits = key_bits.view(np.int64)  # wraps past 2**63
        self.column_keys = self._keys(self._check_bits.astype(np.int64))
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
        # S_j with j = 2^a * o, o odd, is S_o^(2^a): column j - 1 of the
        # syndromes reads row a of the table of log(x^(2^a)) at x = S_o
        j = np.arange(1, 2 * t + 1)
        power = j & -j
        self._syn_source = (j // power - 1) // 2
        self._syn_square = np.log2(power).astype(np.intp)
        squares = 1 << np.arange(self._syn_square.max() + 1)
        self._log_pow = squares[:, None] * self._log % order
        self._log_pow[:, 0] = big
        # decided once: the lookup tables below exist only for table codes
        self._by_table = table_bytes(m, t) <= TABLE_BYTES
        if not self._by_table:
            return
        # Table lookup: S_k * alpha^(-k*j) reads exp at log S_k + (N - k)*j
        # mod N, where S_1 = alpha^j; row S_1 of _unshift holds (N - k)*j
        # mod N.  The scaled S_1 (0 or 1) is bit 0 of the table's index and
        # S_3, S_5, ... follow m bits apiece.
        self._unshift = (
            (order - np.arange(1, 2 * t, 2)) * f.log[:, None] % order)
        self._index_weights = np.concatenate(
            [[1], np.left_shift(2, m * np.arange(t - 1), dtype=np.int64)])
        # A locator e shifted back by j lies at degree sign*(e + j) mod N,
        # which is position n - 1 - degree; _position reads that at e + j,
        # n + 1 (failure) where the degree is shortened, n at a pad's
        # 2N + j and n + 1 at a failure's 3N + j.
        position = n - 1 - sign * np.arange(2 * order - 1) % order
        self._position = np.full(4 * order, n + 1)
        self._position[: 2 * order - 1] = np.where(position >= 0, position,
                                                   n + 1)
        self._position[2 * order : 3 * order] = n

    def _syndrome_bits(self, words):
        prod = np.asarray(words, dtype=np.float32) @ self._check_bits
        return prod.astype(np.int64) & 1

    def _keys(self, bits):
        """Odd-syndrome bits (rows, t*m) to keys (rows, key_words)."""
        return (bits @ self._key_bits).view(np.uint64)

    def words_with_errors(self, words):
        """Boolean mask of rows whose syndrome is nonzero (batch test)."""
        return self._syndrome_bits(words).any(axis=1)

    def syndrome_keys(self, words):
        """The key of every row of ``words``: its odd syndromes S_1, S_3,
        ..., S_(2t-1), packed m bits apiece into ``key_words`` uint64s."""
        return self._keys(self._syndrome_bits(words))

    def key_fields(self, keys):
        """S_1, S_3, ..., S_(2t-1) as field ints (int64) from keys whose
        first ``key_words`` columns hold them."""
        words = keys.view(np.int64)[:, self._field_word]
        return (words >> self._field_shift) & self._field_mask

    @functools.cached_property
    def bdd_table(self):
        """The syndrome table this code decodes by
        (:func:`build_syndrome_table`), or None for a code whose
        :func:`table_bytes` exceed ``TABLE_BYTES``.

        Fetched from :func:`syndrome_table` at first use, not at
        construction: a construction search builds its component codes
        first, and a table built then would sit under the search's
        temporary arrays and add to the process's peak memory.
        """
        if not self._by_table:
            return None
        return syndrome_table(self.m, self.t)

    def decode_syndromes(self, keys):
        """Bounded-distance decode of words known by their syndrome keys.

        ``keys[i]`` is the key of word i (:meth:`syndrome_keys`; columns
        past ``key_words`` are ignored), from which its odd syndromes S_1,
        S_3, ..., S_(2t-1) are unpacked as field ints.  Returns the
        ``(words, t)`` position matrix: row i holds the positions that word
        i's correction flips, in any order, and ``n`` in its unused
        columns, or reads ``n + 1`` somewhere if word i has no codeword
        within distance t.

        A word with S_1 = alpha^j has the syndromes of its error pattern
        shifted by -j: S_k * alpha^(-k*j), so S_1 becomes 1; a word with
        S_1 = 0 is taken as it is.  Those syndromes index the table
        (``bdd_table``), whose row is the pattern of weight <= t that has
        them, or a failure.  Its locators alpha^e, shifted back to e + j,
        lie at degree (e + j) mod N (-(e + j) mod N for a column code,
        whose syndromes run on alpha^-1); a degree of n or more is a
        shortened position and fails the word: bounded-distance decoding
        of the shortened code.  A code without a table (``bdd_table`` is
        None, as :func:`table_bytes` exceeds ``TABLE_BYTES``) runs
        :meth:`berlekamp_chien` instead.
        """
        synd = self.key_fields(keys)
        table = self.bdd_table
        if table is None:
            return self.berlekamp_chien(synd)
        s1 = synd[:, 0]
        scaled = self._unshift.take(s1, axis=0)
        scaled += self._log[synd]
        locs = table.take(self._exp[scaled] @ self._index_weights, axis=0)
        # log 0 reads 0: no shift
        return self._position[locs + self.field.log[s1][:, None]]

    def berlekamp_chien(self, synd):
        """:meth:`decode_syndromes` by Berlekamp-Massey and a Chien search,
        from the field ints ``synd`` (:meth:`key_fields`) of the keys.

        Binary Berlekamp-Massey takes t steps (its odd discrepancies
        vanish); a word is accepted when L <= t and the Chien search finds
        L roots of sigma among the n positions.  Works for every code; it
        is the decoder of codes too large for a syndrome table.  A failed
        word's row reads ``n + 1`` throughout.
        """
        t, order = self.t, self.field.order
        log, exp = self._log, self._exp
        n_words = len(synd)
        # column j: log S_(j+1)
        lsyn = self._log_pow[self._syn_square, synd[:, self._syn_source]]
        # Step 0 in closed form: d = S_1 and L = 0, so sigma = 1 + S_1 x,
        # and B(x) = 1 becomes x^2 B(x) if S_1 != 0, else x^3 B(x).  sigma
        # and x^mshift B(x) keep t + 1 coefficients, which is all a word
        # that stays within L <= t needs.
        grow = synd[:, 0] != 0
        sigma = np.zeros((n_words, t + 1), dtype=np.int64)
        sigma[:, 0] = 1
        sigma[:, 1] = synd[:, 0]
        shifted = np.zeros((n_words, t + 3), dtype=np.int64)
        shifted[:, 2] = grow
        shifted[:, 3] = ~grow
        shifted = shifted[:, : t + 1]
        L = grow.astype(np.int64)
        log_b = lsyn[:, 0] * grow  # log of the last discrepancy, or 0
        for i in range(2, 2 * t, 2):
            # d = S_(i+1) + sum over j of sigma_j S_(i+1-j)
            span = min(i, t)
            terms = (log[sigma[:, 1 : span + 1]]
                     + lsyn[:, i - 1 :: -1][:, :span])
            d = synd[:, i // 2] ^ np.bitwise_xor.reduce(exp[terms], axis=1)
            log_d = log[d]
            step = exp[(log_d - log_b + order)[:, None] + log[shifted]]
            grow = (d != 0) & (L <= i // 2)
            L = np.where(grow, i + 1 - L, L)
            if i < 2 * t - 2:  # the last step needs no new B(x)
                shifted[:, 2:] = np.where(grow[:, None], sigma, shifted)[:, :-2]
                shifted[:, :2] = 0
                log_b = np.where(grow, log_d, log_b)
            sigma ^= step
        # Chien search.  A word with L > t fails the root count by itself:
        # sigma keeps degree <= t, so it has fewer than L roots, and for the
        # same reason deg sigma = L needs no test.
        terms = exp[log[sigma[:, 1:, None]] + self._chien_exp]
        roots = np.bitwise_xor.reduce(terms, axis=1) == 1  # sigma_0 = 1
        count = np.count_nonzero(roots, axis=1)
        # each word's roots in increasing order (a stable sort puts them
        # first), then n, since deg sigma <= t bounds count by t
        pos = np.argsort(~roots, axis=1, kind="stable")[:, :t]
        pos[np.arange(t) >= count[:, None]] = self.n
        pos[count != L] = self.n + 1
        return pos

    def decode(self, word):
        """Bounded-distance decode of one word by :meth:`decode_syndromes`;
        a failure leaves the word unmodified, a success lists its flips in
        increasing order."""
        word = np.asarray(word, dtype=np.uint8).reshape(-1)
        if word.size != self.n:
            raise ValueError(f"word must have {self.n} bits, got {word.size}")
        pos = self.decode_syndromes(self.syndrome_keys(word[None, :]))[0]
        if (pos > self.n).any():
            return DecodeResult(False, word, ())
        flips = np.sort(pos[pos < self.n])  # a pad reads n
        fixed = word.copy()
        fixed[flips] ^= 1
        return DecodeResult(True, fixed, tuple(flips.tolist()))

    # -- descriptors ------------------------------------------------------

    def descriptor(self):
        """JSON-serializable descriptor, a codec's ``describe()["code"]``."""
        return {
            "m": self.m,
            "t": self.t,
            "s": self.s,
            "role": self.role,
            "reciprocal": self.reciprocal,
            "primitive_poly": hex(self.field.poly),
            "generator": hex(self.gen),
        }

    def __repr__(self):
        return (f"ComponentCode(m={self.m}, t={self.t}, s={self.s}, "
                f"n={self.n}, k={self.k}, role={self.role!r})")


def code_pair(m, t, s):
    """The (row, column) component codes of an FF or PFF construction: the
    column code uses the reciprocal generator over the same field."""
    return ComponentCode(m, t, s), ComponentCode(m, t, s, reciprocal=True)
