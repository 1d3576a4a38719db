"""
Reference helpers used only by the tests.

Matrix forms of the index-array permutations, slow but obvious algebra
(scalar GF(2^m) arithmetic and binary polynomial division among it), the
scalar BDD oracle, the word-table syndrome gather and the ff mirror views,
kept apart from the package so the tests can check the package against
them.
"""

import math
from fractions import Fraction

import numpy as np

from stairfec import ff, gf2, pff
from stairfec.bch import code_pair


# -- GF(2) matrices ------------------------------------------------------------


def vec(q, order="col"):
    """Vectorize a matrix.

    ``order="col"`` uses the column-wise mapping v(i,j) = j*rows + i,
    ``order="row"`` the row-wise mapping v(i,j) = i*cols + j.
    """
    q = np.asarray(q, dtype=np.uint8)
    if order == "col":
        return q.reshape(-1, order="F")
    if order == "row":
        return q.reshape(-1, order="C")
    raise ValueError(f"unknown order {order!r}")


def unvec(v, rows, cols, order="col"):
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=np.uint8).reshape(-1)
    if v.size != rows * cols:
        raise ValueError(f"cannot reshape {v.size} bits to {rows}x{cols}")
    if order == "col":
        return v.reshape((rows, cols), order="F")
    if order == "row":
        return v.reshape((rows, cols), order="C")
    raise ValueError(f"unknown order {order!r}")


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


# bytes of packed rows that one numpy call of _packed_product gathers
_GATHER_BYTES = 1 << 20


def _packed_product(a, b):
    """The rows of ``a @ b``, each packed into uint64 words, bit j of a row
    in bit j % 8 of its byte j // 8.

    Row i is the XOR of the packed rows of ``b`` that the ones of row i of
    ``a`` select.  The selected rows are gathered ``_GATHER_BYTES`` at a
    time and XORed per row by one ``reduceat``.
    """
    cols = b.shape[1]
    # zero-padded to whole words
    packed = np.zeros((len(b), 8 * -(-cols // 64)), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(b, axis=1, bitorder="little")
    packed = packed.view(np.uint64)
    row, col = np.nonzero(a)
    prod = np.zeros((len(a), packed.shape[1]), dtype=np.uint64)
    step = max(1, _GATHER_BYTES // max(1, packed[:1].nbytes))
    for lo in range(0, len(row), step):
        r, c = row[lo : lo + step], col[lo : lo + step]
        starts = np.concatenate(([0], np.flatnonzero(r[1:] != r[:-1]) + 1))
        # a row split between two gathers gets its XOR in two parts
        prod[r[starts]] ^= np.bitwise_xor.reduceat(packed[c], starts, axis=0)
    return prod


def _is_packed_identity(prod):
    """Whether packed rows (:func:`_packed_product`'s layout) are those of
    the identity: row i is bit i alone, padding included.  Clears the
    diagonal bits of ``prod`` on the way."""
    by_byte = prod.view(np.uint8)
    diag = np.arange(len(by_byte))
    if not (by_byte[diag, diag // 8] == 1 << diag % 8).all():
        return False
    by_byte[diag, diag // 8] = 0
    return not by_byte.any()


def verify_inverse(a, a_inv):
    """``a_inv`` as bits once ``a @ a_inv`` is the identity; ValueError if not.

    For square matrices that is the same as ``a_inv @ a`` being the
    identity.  It checks an inverse found by another route, such as a
    construction search's, without inverting again.  The product is taken
    and compared packed (:func:`_packed_product`), so it costs the ones of
    ``a`` and holds n*n/8 bytes, not the n*n of an unpacked product.
    """
    a = np.asarray(a)
    a_inv = np.asarray(a_inv, dtype=np.uint8)
    if (a_inv.shape != a.shape or a_inv.max(initial=0) > 1
            or not _is_packed_identity(_packed_product(a, a_inv))):
        raise ValueError(f"the {a_inv.shape} inverse of a {a.shape} "
                         "matrix fails verification")
    return a_inv


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


def mul(field, a, b):
    """a * b in ``field``, through its exp/log tables."""
    if a == 0 or b == 0:
        return 0
    return int(field.exp[field.log[a] + field.log[b]])


def div(field, a, b):
    """a / b in ``field``; b is nonzero."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^m)")
    if a == 0:
        return 0
    return int(field.exp[(field.log[a] - field.log[b]) % field.order])


def pow_alpha(field, e):
    """alpha^e for any integer exponent."""
    return int(field.exp[e % field.order])


def poly_mod(a, b):
    """Remainder of the carry-less division of a by b, binary polynomials
    as ints (bit i = coefficient of x^i)."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def poly_eval(field, g, x):
    """The binary polynomial ``g`` (an int, bit i = x^i) at field element x,
    by Horner's rule."""
    acc = 0
    for i in range(g.bit_length() - 1, -1, -1):
        acc = mul(field, acc, x) ^ (g >> i & 1)
    return acc


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


def permutations(cons):
    """The index arrays (pi_1, pi_2) of an ff construction's shift pair."""
    return (ff.shifted_block_indices(cons.s1, cons.m_side),
            ff.shifted_block_indices(cons.s2, cons.m_side))


def build_a_matrix(m_side, r, g_r, f_r, pi1, pi2):
    """The Mr x Mr system matrix tying Y to its own parity contributions,
    for any permutation pair: the dense oracle for ``ff.build_a_ring``.

    Implements A = I_M (x) F_r^T + T pi_2 T (I_M (x) G_r^T) T pi_1^{-1} T
    where T alternates between the two vec-transposition permutations; the
    permutation legs are composed as index arrays, the G_r term is
    scattered straight into A and F_r^T XORed into its diagonal blocks.
    """
    t_rm = ff.transpose_indices(r, m_side)   # vec(Y) -> vec(Y^T), Y r x M
    t_mr = ff.transpose_indices(m_side, r)   # vec(X) -> vec(X^T), X M x r
    # vec(Y) -> vec(X^T): transpose, un-permute, transpose again.
    idx_pre = t_rm[gf2.invert_indices(pi1)][t_mr]
    # G_r^T acts column-wise on X^T (r x M): vec result -> pi_2 -> transpose.
    idx_post = t_rm[pi2][t_mr]
    n = m_side * r
    a = gf2.zeros(n, n)
    # row p of the G_r term is row idx_post[p] % r of G_r^T, in block
    # idx_post[p] // r of I_M (x) G_r^T, with its columns moved to idx_pre
    block, row = np.divmod(idx_post, r)
    a[np.arange(n)[:, None], idx_pre[block[:, None] * r + np.arange(r)]] = \
        g_r.T[row]
    diag = np.arange(m_side)
    a.reshape(m_side, r, m_side, r)[diag, :, diag] ^= f_r.T
    return a


def ring_form(a, m_side, r):
    """The first block row of an Mr x Mr matrix as an M x r x r array,
    coefficient c being block (0, c): A(z) = sum_c C_c z^c when A is
    block-circulant (``ff.expand_ring`` gives A back)."""
    return a[:r].reshape(r, m_side, r).swapaxes(0, 1).copy()


def search_dense(m, t, s, seed=0, max_tries=200):
    """ff's search decided on the dense A of each candidate, in the
    search's own candidate order: (mode, s1, s2, A^-1) of the first
    candidate whose A inverts, or None."""
    row, col = code_pair(m, t, s)
    m_side, r = (row.k - row.r) // 2, row.r
    g_r, f_r = row.g_p[2 * m_side :], col.g_p[2 * m_side :]
    for mode, (s1, s2) in ff._candidates(m_side, r,
                                         np.random.default_rng(seed),
                                         max_tries):
        a = build_a_matrix(m_side, r, g_r, f_r,
                           ff.shifted_block_indices(s1, m_side),
                           ff.shifted_block_indices(s2, m_side))
        try:
            return mode, s1, s2, gf2.invert(a)
        except gf2.SingularMatrixError:
            continue
    return None


def x_from_y(cons, y):
    """The punctured row extension X (M x r) mirrored by Y (r x M)."""
    return unvec(vec(y)[cons.idx_y_to_x], cons.m_side, cons.r)


def y_from_x(cons, x):
    idx = gf2.invert_indices(cons.idx_y_to_x)
    return unvec(vec(x)[idx], cons.r, cons.m_side)


def pr_from_pc(cons, pc):
    """The punctured row parity Pr~ (M x r) mirrored by Pc~ (r x M)."""
    return unvec(vec(pc)[cons.idx_pc_to_pr], cons.m_side, cons.r)


def pc_from_pr(cons, pr):
    idx = gf2.invert_indices(cons.idx_pc_to_pr)
    return unvec(vec(pr)[idx], cons.r, cons.m_side)


# -- pff -----------------------------------------------------------------------


def unknown_map(cons, y2):
    """U(Y2) = Y2^T A^T + [I; F_r^T] Y2 G_B~, the stage-2 unknown side."""
    stacked = np.vstack([y2, gf2.mat_mul(cons.f_r.T, y2)])
    return (gf2.mat_mul(y2.T, cons.a_small.T)
            ^ gf2.mat_mul(stacked, cons.g_b_t))


def build_b_matrix(r, a_small, g_b_t, f_r):
    """The 2r^2 x 2r^2 stage-2 system B, the map :func:`unknown_map` on the
    row-wise vecs of Y2 and of its image.

    Stacks cyclic right-shifts of the scattered stage-1 matrix (the
    Y2^T A^T contribution; column i of A lands in column 2r*i) on top of
    kron blocks carrying G_B~ (the [I; F_r^T] Y2 G_B~ contribution).
    """
    scattered = gf2.zeros(r, 2 * r * r)
    scattered[:, 2 * r * np.arange(r)] = a_small
    first = np.vstack([np.roll(scattered, j, axis=1) for j in range(2 * r)])
    second = gf2.kron(np.vstack([gf2.identity(r), f_r.T]), g_b_t.T)
    return first ^ second


def reduced_b_invertible(a_small, g_b_t, f_r):
    """The dense decision that ``pff.reduced_b_invertible`` takes on an
    r x r matrix: whether ``gf2.invert`` inverts the r^2 x r^2 system R
    (``pff.reduced_b_matrix``)."""
    try:
        gf2.invert(pff.reduced_b_matrix(a_small, g_b_t, f_r))
    except gf2.SingularMatrixError:
        return False
    return True


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
            out[j - 1] ^= pow_alpha(f, _sign(code) * j * deg)
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
                d ^= mul(f, c[j], synd[i - j])
        if d == 0:
            mshift += 1
            continue
        coef = div(f, d, bb)
        shifted = [0] * mshift + [mul(f, coef, x) for x in b]
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
        x = pow_alpha(f, -_sign(code) * (code.n - 1 - i))
        acc = 0
        for coef in reversed(sigma):
            acc = mul(f, acc, x) ^ coef
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


def _increasing(order, k, start=0):
    """Every strictly increasing k-tuple of range(start, order), in blocks
    of at most ``order`` rows that share all entries but the last."""
    if k <= 1:
        yield np.arange(start, order)[:, None] if k else np.zeros((1, 0), int)
        return
    for first in range(start, order - k + 1):
        for block in _increasing(order, k - 1, first + 1):
            yield np.column_stack([np.full(len(block), first), block])


def syndrome_table(field, t):
    """``bch.build_syndrome_table`` with the choices of w - 1 exponents
    enumerated block by block in Python and each pattern keyed by its odd
    syndromes S_1, S_3, ... m bits apiece, then scattered to its row."""
    order, m = field.order, field.m
    odd = np.arange(1, 2 * t, 2)[:, None, None]
    weights = np.left_shift(1, m * np.arange(t), dtype=np.int64)
    keys, locators = [np.zeros(1, np.int64)], [np.full((1, t), -order)]
    for s1 in (1, 0):
        for w in range(1, t + 1):
            for chosen in _increasing(order, w - 1):
                last = s1 ^ np.bitwise_xor.reduce(field.exp[chosen], axis=1)
                keep = last != 0
                last = field.log[last]
                if w > 1:
                    keep &= last > chosen[:, -1]
                locs = np.full((np.count_nonzero(keep), t), -order)
                locs[:, : w - 1] = chosen[keep]
                locs[:, w - 1] = last[keep]
                synd = np.bitwise_xor.reduce(
                    field.exp[odd * locs[:, :w] % order], axis=2)
                keys.append(weights @ synd)
                locators.append(locs)
    keys, locators = np.concatenate(keys), np.concatenate(locators)
    assert len(np.unique(keys)) == len(keys)
    # S_1 in {0, 1} stays at bit 0, and S_3, S_5, ... move down to bit 1
    rows = (keys & 1) | (keys >> m) << 1
    table = np.full((2 << (t - 1) * m, t), 3 * order,
                    dtype=np.min_scalar_type(4 * order))
    table[rows] = np.where(locators < 0, 2 * order, locators)
    return table


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


def syndromes_by_gather(plan, buf):
    """``engine.Plan.syndromes`` by gathering every word's bits through its
    code's padded word table and taking their keys
    (``ComponentCode.syndrome_keys``)."""
    keys = np.zeros((plan.n_words + 1, plan.width), dtype=np.uint64)
    for code, table, first in plan.stacks:
        # the tables hold valid slots and -1, which "clip" reads as slot 0
        keys[first : first + len(table), : code.key_words] = (
            code.syndrome_keys(buf.take(table, mode="clip")[:, : code.n]))
    return keys


def info_slots(codec):
    """The slots of a codec's payload bits, in payload order, from its slot
    frame and its family's block layout: sc's left M - r columns of B_1..,
    ff's B_1.. whole, and per pff period its L - 1 standard blocks' left
    M - r columns, S's top M - 2r rows and D."""
    blocks = codec.slot_frame().blocks
    side, r = codec.M, codec.r
    if codec.family == "sc":
        views = [b[:, : side - r] for b in blocks[1:]]
    elif codec.family == "ff":
        views = blocks[1:]
    else:
        views = []
        L = codec.L
        for base in range(0, codec.n_blocks, L + 1):
            s_blk, d_blk = blocks[base + L : base + L + 2]
            views += [b[:, : side - r] for b in blocks[base + 1 : base + L]]
            views += [s_blk[: side - 2 * r], d_blk]
    return np.concatenate([v.reshape(-1) for v in views])


def payload_by_gather(codec, buf):
    """``FrameCodec.extract_payload`` of a frame buffer by gathering its
    payload slots (:func:`info_slots`)."""
    return buf[info_slots(codec)]


# -- Monte Carlo -----------------------------------------------------------------


def run_frames(codec, p, master_seed, indices):
    """``sim.run_frames`` by the transmitted frame: encode each frame's
    payload, pass the frame through the BSC, decode it and compare the
    payload, drawing payload and noise from the same per-frame generator."""
    bits = bit_errors = blocks = block_errors = 0
    for i in indices:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=master_seed, spawn_key=(int(i),)))
        payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
        frame = codec.encode_payload(payload)
        frame.buf[:-1] ^= rng.random(codec.n_tx) < p
        codec.decode_frame(frame)
        wrong = codec.extract_payload(frame) != payload
        per_block = np.add.reduceat(wrong, codec.info_starts, dtype=np.int64)
        bits += wrong.size
        bit_errors += int(per_block.sum())
        blocks += per_block.size
        block_errors += int(np.count_nonzero(per_block))
    return len(indices), bits, bit_errors, blocks, block_errors
