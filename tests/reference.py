"""
Reference helpers used only by the tests.

Matrix forms of the index-array permutations, slow but obvious algebra,
and the ff mirror views, kept apart from the package so the tests can check
the package against them.
"""

import math
from fractions import Fraction

import numpy as np

from stairfec import gf2


# -- GF(2) matrices ------------------------------------------------------------


def rank(a):
    """GF(2) rank via bit-packed forward elimination."""
    a = np.asarray(a, dtype=np.uint8)
    if a.size == 0:
        return 0
    packed = np.packbits(a, axis=1)
    n_rows, n_cols = a.shape
    r = 0
    for col in range(n_cols):
        if r == n_rows:
            break
        byte, shift = divmod(col, 8)
        bits = (packed[:, byte] >> (7 - shift)) & 1
        pivots = np.nonzero(bits[r:])[0]
        if pivots.size == 0:
            continue
        pivot = r + pivots[0]
        if pivot != r:
            packed[[r, pivot]] = packed[[pivot, r]]
            bits[[r, pivot]] = bits[[pivot, r]]
        below = np.nonzero(bits[r + 1 :])[0] + r + 1
        if below.size:
            packed[below] ^= packed[r]
        r += 1
    return r


def invert(a):
    """GF(2) inverse by bit-packed Gauss-Jordan elimination, one column per
    pass: the oracle for ``gf2.invert``, raising the same error."""
    a = np.asarray(a, dtype=np.uint8)
    n = a.shape[0]
    if n == 0:
        return gf2.zeros(0, 0)
    # [a | I] packed row by row, each half padded to whole bytes
    half = -(-n // 8)
    packed = np.zeros((n, 2 * half), dtype=np.uint8)
    packed[:, :half] = np.packbits(a, axis=1)
    diag = np.arange(n)
    packed[diag, half + diag // 8] = 0x80 >> (diag % 8)
    for col in range(n):
        byte, shift = divmod(col, 8)
        bits = (packed[:, byte] >> (7 - shift)) & 1
        pivots = np.nonzero(bits[col:])[0]
        if pivots.size == 0:
            raise gf2.SingularMatrixError(f"rank deficiency at column {col}")
        pivot = col + pivots[0]
        if pivot != col:
            packed[[col, pivot]] = packed[[pivot, col]]
            bits[[col, pivot]] = bits[[pivot, col]]
        others = np.nonzero(bits)[0]
        others = others[others != col]
        if others.size:
            packed[others] ^= packed[col]
    return np.unpackbits(packed[:, half:], axis=1, count=n)


def elementary_perm(m, i):
    """E_m**i: identity with each row cyclically shifted right by i."""
    if m < 1:
        raise ValueError("m must be positive")
    if i < 0:
        raise ValueError("exponent must be non-negative")
    e = gf2.zeros(m, m)
    idx = np.arange(m)
    e[idx, (idx + i) % m] = 1
    return e


def block_diag(blocks):
    """Block-diagonal composition of equally sized square blocks."""
    blocks = [np.asarray(b, dtype=np.uint8) for b in blocks]
    if not blocks:
        raise ValueError("need at least one block")
    shape = blocks[0].shape
    for b in blocks:
        if b.shape != shape:
            raise ValueError("all blocks must have the same size")
    rows, cols = shape
    out = gf2.zeros(rows * len(blocks), cols * len(blocks))
    for i, b in enumerate(blocks):
        out[i * rows : (i + 1) * rows, i * cols : (i + 1) * cols] = b
    return out


def transpose_perm(rows, cols):
    """Permutation matrix P with vec(Y.T) = P @ vec(Y) (column-wise vec).

    Y is rows x cols.  For square shapes P is an involution.
    """
    n = rows * cols
    p = np.arange(n)
    i = p % rows
    j = p // rows
    q = i * cols + j
    mat = gf2.zeros(n, n)
    mat[q, p] = 1
    return mat


def perm_indices(p):
    """Index-array form of a permutation matrix: (P @ x)[i] == x[idx[i]]."""
    p = np.asarray(p, dtype=np.uint8)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("permutation matrix must be square")
    if not (p.sum(axis=0) == 1).all() or not (p.sum(axis=1) == 1).all():
        raise ValueError("not a permutation matrix")
    return np.argmax(p, axis=1)


def perm_matrix(idx):
    """Permutation matrix from its index-array form."""
    idx = np.asarray(idx)
    n = idx.size
    mat = gf2.zeros(n, n)
    mat[np.arange(n), idx] = 1
    return mat


def to_text(a):
    """ASCII 0/1 grid, one row per line."""
    a = np.asarray(a, dtype=np.uint8)
    return "\n".join("".join("1" if x else "0" for x in row) for row in a)


def from_text(text):
    rows = [line for line in text.strip().splitlines() if line]
    if not rows:
        return gf2.zeros(0, 0)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged 0/1 grid")
    return np.array([[int(c) for c in row] for row in rows], dtype=np.uint8)


# -- GF(2^m) ---------------------------------------------------------------------


def element_order(field, a):
    """Multiplicative order of a nonzero field element: N / gcd(N, log a)."""
    if a == 0:
        raise ValueError("zero has no multiplicative order")
    la = int(field.log[a])
    if la == 0:
        return 1
    return field.order // math.gcd(field.order, la)


# -- ff ------------------------------------------------------------------------


def ff_rate_finite(n_blocks, n, k):
    """FF frame rate for a chain of n_blocks information blocks."""
    if n_blocks < 1:
        raise ValueError("need at least one block")
    num = 2 * k - n
    pairs = (n_blocks + 1) // 2
    return Fraction(num, num + Fraction(4 * pairs * (n - k), n_blocks))


def valid_column_set(row, m_side, r):
    """Column words reachable from channel row ``row`` under the canonical
    low-floor permutations: the 2r columns row+1 .. row+2r mod M."""
    return {(row + 1 + j) % m_side for j in range(2 * r)}


def x_from_y(cons, y):
    """The punctured row extension X (M x r) mirrored by Y (r x M)."""
    return gf2.unvec(gf2.vec(y)[cons.idx_y_to_x], cons.m_side, cons.r)


def y_from_x(cons, x):
    idx = gf2.invert_indices(cons.idx_y_to_x)
    return gf2.unvec(gf2.vec(x)[idx], cons.r, cons.m_side)


def pr_from_pc(cons, pc):
    """The punctured row parity Pr~ (M x r) mirrored by Pc~ (r x M)."""
    return gf2.unvec(gf2.vec(pc)[cons.idx_pc_to_pr], cons.m_side, cons.r)


def pc_from_pr(cons, pr):
    idx = gf2.invert_indices(cons.idx_pc_to_pr)
    return gf2.unvec(gf2.vec(pr)[idx], cons.r, cons.m_side)


# -- pff -----------------------------------------------------------------------


def unknown_map(cons, y2):
    """U(Y2) = Y2^T A^T + [I; F_r^T] Y2 G_B~, the stage-2 unknown side."""
    stacked = np.vstack([y2, gf2.mat_mul(cons.f_r.T, y2)])
    return (gf2.mat_mul(y2.T, cons.a_small.T)
            ^ gf2.mat_mul(stacked, cons.g_b_t))


# -- BCH bounded-distance decoding -------------------------------------------------


def _sign(code):
    """Column codes use the reciprocal generator, whose roots are alpha^-j."""
    return -1 if code.reciprocal else 1


def syndromes(code, word):
    """Syndromes S_1..S_2t of a word as field ints, one position at a time."""
    f = code.field
    out = [0] * (2 * code.t)
    for i in np.flatnonzero(np.asarray(word, dtype=np.uint8)):
        deg = code.n - 1 - int(i)
        for j in range(1, 2 * code.t + 1):
            out[j - 1] ^= f.pow_alpha(_sign(code) * j * deg)
    return out


def berlekamp_massey(field, synd):
    """Scalar Berlekamp-Massey over all 2t syndromes: (sigma, L)."""
    f = field
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
            continue
        coef = f.div(d, bb)
        shifted = [0] * mshift + [f.mul(coef, x) for x in b]
        new = c + [0] * (len(shifted) - len(c))
        for j, x in enumerate(shifted):
            new[j] ^= x
        if 2 * L <= i:
            L, b, bb, mshift = i + 1 - L, c, d, 1
        else:
            mshift += 1
        c = new
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c, L


def chien(code, sigma):
    """Word positions whose locator alpha^(sign*deg) inverts a root of sigma."""
    f = code.field
    roots = []
    for i in range(code.n):
        x = f.pow_alpha(-_sign(code) * (code.n - 1 - i))
        acc = 0
        for coef in reversed(sigma):
            acc = f.mul(acc, x) ^ coef
        if acc == 0:
            roots.append(i)
    return roots


def bdd(code, word):
    """Scalar bounded-distance decode: (ok, sorted flip positions)."""
    synd = syndromes(code, word)
    if not any(synd):
        return True, []
    sigma, L = berlekamp_massey(code.field, synd)
    if L > code.t or len(sigma) - 1 != L:
        return False, []
    roots = chien(code, sigma)
    if len(roots) != L:
        return False, []
    return True, roots


def decode_one_at_a_time(buf, schedule, l_max):
    """The sliding-window loop with one scalar BDD per flagged word.

    Same contract as ``engine.decode``: each group decodes from one
    snapshot, a word with a flip on the zero slot is vetoed, and the flips
    of the others are XORed in one at a time.  Returns the number of sweeps.
    """
    zero = buf.size - 1
    sweeps = 0
    for groups in schedule:
        for _ in range(l_max):
            sweeps += 1
            changed = False
            for code, words in groups:
                snap = buf[words]
                for w in range(len(words)):
                    ok, flips = bdd(code, snap[w])
                    slots = [int(words[w, f]) for f in flips]
                    if not ok or not slots or zero in slots:
                        continue
                    for s in slots:
                        buf[s] ^= 1
                    changed = True
            if not changed:
                break
    return sweeps
