"""
Feed-forward staircase codes.

Blocks are all-information M x M matrices with M = (k - r)/2.  Each pair of
new blocks (B_1, B_2) behind the running block B_0 gets a redundancy pair:
row parities P_r = [B_0 B_1] G_i and column parities P_c = F_i^T [B_1; B_2],
closed into a self-consistent loop by the constraints

    Y = (pi_1(X))^T        Pc~ = (pi_2(Pr~))^T

where X (M x r) extends the row codewords and Y (r x M) the column
codewords.  Only Y and Pc~ are transmitted; X and Pr~ are their mirror
images under the permutations.  Solving the loop reduces to one Mr x Mr
linear system A; each construction finds A^-1 once.

The permutations are shifted block diagonals: pi_i shifts column j of an
M x r matrix up cyclically by s_i[j].  With 2r pairwise-distinct shifts the
mirror images of any codeword spread over distinct words, which is what
pushes the error floor down, so ff needs 2r < M.  A shifted pair makes A
block-circulant, the r x r matrix A(z) over GF(2)[z]/(z^M - 1), which is
built straight from the shifts (:func:`build_a_ring`).  The search decides
each candidate on A(z) reduced modulo z^M' - 1 (:func:`fold_ring`), an
rM' x rM' system for the odd part M' of M = 2^e M', and lifts the inverse
of the one that passes to A(z)^-1 in e Newton steps (:func:`lift_inverse`),
so no Mr x Mr system is built or inverted.  The encoder multiplies by
A^-1 in ring form too, one cyclic convolution along z
(:meth:`FFConstruction.solve`), so no dense A^-1 is built either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, gf2
from .bch import ComponentCode, code_pair

__all__ = [
    "transpose_indices",
    "shifted_block_indices",
    "low_ef_shifts",
    "build_a_ring",
    "expand_ring",
    "ring_apply",
    "ring_product",
    "fold_ring",
    "lift_inverse",
    "FFConstruction",
    "build_construction",
    "search_construction",
    "FFCode",
]


def transpose_indices(rows, cols):
    """Index array T with vec(Y.T) = vec(Y)[T] for a rows x cols matrix Y."""
    q = np.arange(rows * cols)
    return (q % cols) * rows + q // cols


def shifted_block_indices(shifts, m):
    """Block diagonal of cyclic shifts E_m^(s_j), as an index array.

    Acts on the column-wise vec of an m x len(shifts) matrix; block j shifts
    column j up cyclically by s_j, so the shifts -s give the inverse.
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    i = np.arange(m)
    return (np.arange(shifts.size)[:, None] * m + (i[None, :] + shifts[:, None]) % m).reshape(-1)


def low_ef_shifts(m_side, r):
    """The shifts (s_1, s_2) of the low-error-floor pair; needs 2r < M.

    pi_1 uses shifts M-1..M-r and pi_2 shifts M-r-1..M-2r, so the mirror of
    row i of a channel block lands in columns i+1..i+2r mod M, all distinct.
    """
    if 2 * r >= m_side:
        raise ValueError(f"ff shift pairs need 2r < M, got M = {m_side}, "
                         f"r = {r}")
    return m_side - 1 - np.arange(r), m_side - r - 1 - np.arange(r)


def build_a_ring(m_side, r, g_r, f_r, s1, s2):
    """A(z) = sum_c C_c z^c as the M x r x r array of its coefficients.

    A = I_M (x) F_r^T + T pi_2 T (I_M (x) G_r^T) T pi_1^{-1} T, where T
    alternates between the two vec transpositions, ties Y to its own parity
    contributions.  Row j' of the product takes F_r[j, j'] times row j of Y
    in place, so C_0 = F_r^T, and through the mirrors G_r[j, j'] times row
    j of Y read s_2[j'] - s_1[j] columns further on, so that bit goes to
    C_c[j', j] with c = (s_2[j'] - s_1[j]) mod M.
    """
    a = np.zeros((m_side, r, r), dtype=np.uint8)
    a[0] = f_r.T
    j = np.arange(r)
    # each (j', j) is hit once, so the fancy-indexed XOR loses nothing
    a[(s2[None, :] - s1[:, None]) % m_side, j[None, :], j[:, None]] ^= g_r
    return a


def expand_ring(x):
    """The Mr x Mr block circulant of the M x r x r array ``x``: block
    (i, j) is x[(j - i) mod M], so its first block row is ``x``."""
    m_side, r = x.shape[:2]
    # block row i is the first one rotated right by i blocks: the window of
    # the doubled row that starts at block M - i
    double = np.concatenate([x, x]).swapaxes(0, 1)
    out = gf2.zeros(m_side * r, m_side * r)
    for i in range(m_side):
        out[i * r : (i + 1) * r] = \
            double[:, m_side - i : 2 * m_side - i].reshape(r, -1)
    return out


def ring_apply(x_spectrum, y):
    """X(z) Y(z) mod z^M - 1 over GF(2), where ``x_spectrum`` is the real
    FFT along z of the M x r x r coefficient array of X(z) and ``y`` is an
    M x r x c coefficient array.

    The integer product is a cyclic convolution along z, one real FFT of
    each factor; its coefficients are sums of at most rM products of bits,
    so rounding gives them exactly before they are reduced mod 2.
    """
    prod = np.fft.irfft(x_spectrum @ np.fft.rfft(y, axis=0), n=len(y),
                        axis=0)
    return (np.rint(prod).astype(np.int64) & 1).astype(np.uint8)


def ring_product(x, y):
    """X(z) Y(z) mod z^M - 1 over GF(2), for M x r x r coefficient arrays:
    the first block row of the product of their block circulants."""
    return ring_apply(np.fft.rfft(x, axis=0), y)


def fold_ring(a):
    """A(z) mod (z^M' - 1), where M = 2^e M' with M' odd: coefficient c of
    the M x r x r array ``a`` XORed into coefficient c mod M'.

    A block-circulant A, block (i, j) = C_((j - i) mod M), is the r x r
    matrix A(z) = sum_c C_c z^c over GF(2)[z]/(z^M - 1) (the module view of
    quasi-cyclic codes; Ling & Sole, IEEE Trans. Inf. Theory 2001).  It is
    invertible exactly when det A(z) is prime to z^M - 1.  Over GF(2),
    z^M - 1 = (z^M' - 1)^(2^e) has the irreducible factors of z^M' - 1, so
    that holds exactly when the fold is invertible.  For odd M the fold is
    A(z) itself.
    """
    m_side, r = a.shape[:2]
    odd = m_side // (m_side & -m_side)
    return np.bitwise_xor.reduce(a.reshape(-1, odd, r, r))


def lift_inverse(a, x):
    """A(z)^-1 mod z^M - 1 from X(z) = A(z)^-1 mod z^M' - 1, M = 2^e M'.

    ``a`` and ``x`` are M x r x r and M' x r x r coefficient arrays
    (:func:`build_a_ring`).  If A X = I + E with E = 0 mod (z^M' - 1)^k, the
    step X <- X A X gives A X A X = (I + E)^2 = I + E^2 over GF(2), zero
    mod (z^M' - 1)^(2k); so e steps reach (z^M' - 1)^(2^e) = z^M - 1
    (Newton, or Hensel, lifting).  One more product checks A(z) X(z) = I;
    ValueError if it is not.
    """
    m_side, odd, r = len(a), len(x), a.shape[1]
    x = np.concatenate([x, np.zeros((m_side - odd, r, r), dtype=np.uint8)])
    for _ in range((m_side // odd).bit_length() - 1):
        x = ring_product(ring_product(x, a), x)
    check = ring_product(a, x)
    check[0] ^= gf2.identity(r)
    if check.any():
        raise ValueError(f"the inverse lifted from z^{odd} - 1 to z^{m_side} "
                         "- 1 fails A(z) X(z) = I")
    return x


def _check_shifts(shifts, m_side, r):
    """``shifts`` as int64 once they are r integers in [0, M)."""
    shifts = np.asarray(shifts)
    if (shifts.shape != (r,) or not np.issubdtype(shifts.dtype, np.integer)
            or ((shifts < 0) | (shifts >= m_side)).any()):
        raise ValueError(f"shifts must be {r} integers in [0, {m_side})")
    return shifts.astype(np.int64)


@dataclass
class FFConstruction:
    """Everything fixed at design time for one FF code.

    Takes the component codes, the shift vectors ``s1`` and ``s2`` of the
    permutation pair (r integers in [0, M) each) and the mode.  Derives M,
    r, the parity splits G_p = [G_i; G_r] and F_p = [F_i; F_r], the mirror
    maps, ``a_inv_ring``, the M x r x r ring form of A^-1
    (:func:`expand_ring` gives the dense A^-1), and ``a_inv_spectrum``,
    the real FFT along z of A^-1's first block column, by which
    :meth:`solve` multiplies; SingularMatrixError if A is not invertible.
    """

    code_row: ComponentCode
    code_col: ComponentCode
    s1: np.ndarray
    s2: np.ndarray
    mode: str = "custom"

    def __post_init__(self):
        row, col = self.code_row, self.code_col
        if row.k <= row.r or (row.k - row.r) % 2:
            raise ValueError("FF needs k > r with k - r even")
        m_side = self.m_side = (row.k - row.r) // 2
        r = self.r = row.r
        self.s1 = _check_shifts(self.s1, m_side, r)
        self.s2 = _check_shifts(self.s2, m_side, r)
        self.g_i, self.g_r = row.g_p[: 2 * m_side], row.g_p[2 * m_side :]
        self.f_i, self.f_r = col.g_p[: 2 * m_side], col.g_p[2 * m_side :]
        a = build_a_ring(m_side, r, self.g_r, self.f_r, self.s1, self.s2)
        folded = expand_ring(fold_ring(a))  # a candidate is rejected on it
        odd = len(folded) // r
        try:
            # the inverse's first block row, copied so that it alone lives on
            x0 = gf2.invert(folded)[:r].reshape(r, odd, r).swapaxes(0, 1)
            x0 = x0.copy()
        except gf2.SingularMatrixError as err:
            raise gf2.SingularMatrixError(
                f"A(z) mod (z^{odd} - 1) is singular: {err}") from None
        del folded  # before the lift's padded arrays
        self.a_inv_ring = lift_inverse(a, x0)
        t_rm = transpose_indices(r, m_side)
        # vec(X) = vec(Y)[idx_y_to_x] and vec(Pr~) = vec(Pc~)[idx_pc_to_pr]
        self.idx_y_to_x = t_rm[shifted_block_indices(-self.s1, m_side)]
        self.idx_pc_to_pr = t_rm[shifted_block_indices(-self.s2, m_side)]
        # vec(P_r) -> vec((pi_2(P_r))^T), used on the encoder side
        self.idx_pr_enc = shifted_block_indices(self.s2, m_side)[
            transpose_indices(m_side, r)]
        # block i of A^-1's first block column is X_(-i mod M)
        self.a_inv_spectrum = np.fft.rfft(
            self.a_inv_ring[-np.arange(m_side)], axis=0)
        gf2.freeze(self)

    def solve(self, rhs):
        """A^-1 y for every vector y along the last axis of ``rhs``.

        A vector is the column-wise vec of an r x M matrix, whose column j
        is coefficient y_j of y(z).  Block (i, j) of A^-1 is X_(j - i), so
        block i of the product is sum_j X_(j - i) y_j, coefficient i of
        X(z^-1) y(z); X(z^-1), A^-1's first block column, is convolved with
        all vectors at once.
        """
        m_side, r = self.m_side, self.r
        # coefficient j of y(z), column j of the r x M matrix, for every y
        blocks = rhs.reshape(-1, m_side, r).transpose(1, 2, 0)
        y = ring_apply(self.a_inv_spectrum, blocks)
        return y.transpose(2, 0, 1).reshape(rhs.shape)


def build_construction(code_row, code_col, s1, s2, mode="custom"):
    """One search candidate; SingularMatrixError if A is not invertible."""
    return FFConstruction(code_row, code_col, s1, s2, mode)


def _candidates(m_side, r, rng, max_tries):
    """Shift pairs in order of preference, drawn from ``rng`` lazily;
    ValueError before the first when 2r >= M."""
    yield "low_ef", low_ef_shifts(m_side, r)
    # Any pair with 2r pairwise-distinct shifts spreads every row's
    # mirrors over distinct column words, same as the canonical pair.
    for _ in range(max_tries):
        shifts = rng.choice(m_side, size=2 * r, replace=False)
        yield "block_shift_spread", (shifts[:r], shifts[r:])


@gf2.memoize
def search_construction(m, t, s, *, seed=0, max_tries=200):
    """Find an invertible construction for the given component parameters.

    Tries the low-error-floor shift pair, then up to ``max_tries`` random
    pairs of 2r distinct shifts; ValueError, before any candidate is built,
    when 2r >= M leaves no such pair.  A process searches once per
    ``(m, t, s, seed, max_tries)`` and shares the read-only result while it
    fits the byte budget of :func:`gf2.memoize`; a failed search is
    repeated on every call.
    """
    code_row, code_col = code_pair(m, t, s)
    m_side = (code_row.k - code_row.r) // 2
    last_err = None
    for mode, (s1, s2) in _candidates(m_side, code_row.r,
                                      np.random.default_rng(seed), max_tries):
        try:
            return build_construction(code_row, code_col, s1, s2, mode=mode)
        except gf2.SingularMatrixError as err:
            last_err = str(err)  # not err: its traceback would pin this frame
    raise gf2.SingularMatrixError(
        f"no invertible shift pair found for (m={m}, t={t}, s={s}): {last_err}"
    )


class FFCode(engine.FrameCodec):
    """Encoder/decoder for a fixed-length feed-forward staircase frame.

    The stream carries blocks B_1..B_n, then Y and Pc~ of each pair.
    """

    family = "ff"

    def __init__(self, construction, n_blocks, *, window=7, l_max=8):
        if n_blocks < 2 or n_blocks % 2:
            raise ValueError("FF frames need an even, positive block count")
        c = self.cons = construction
        self.code, self.mode = c.code_row, c.mode
        m_side = self.M = construction.m_side
        r = self.r = construction.r
        self.n_blocks = self.length = n_blocks
        self.n_pairs = n_blocks // 2
        self.window = window
        self.l_max = l_max

        slots = self._compile([(m_side, m_side)] * n_blocks
                              + [(r, m_side)] * n_blocks)
        self._set_info(slots.blocks[1:])
        # groups 2j and 2j + 1: the column and row words of pair j; a row
        # word reads its punctured X and Pr~ from the mirroring Y and Pc~
        groups = []
        for j, pair in enumerate(slots.pairs):
            b0, b1, b2 = slots.blocks[2 * j : 2 * j + 3]
            # column-wise vecs of the slot tables, kept as intp
            x = pair.y.ravel("F")[c.idx_y_to_x].reshape((m_side, r), order="F")
            pr = pair.pc.ravel("F")[c.idx_pc_to_pr].reshape((m_side, r),
                                                             order="F")
            groups += [
                (c.code_col, np.vstack([b1, b2, pair.y, pair.pc]).T),
                (c.code_row, np.hstack([b0, b1, x, pr])),
            ]
        wp = min(max(1, window // 2), self.n_pairs)
        self._set_plan(groups, [range(2 * p, 2 * (p + wp))
                                for p in range(self.n_pairs - wp + 1)])

    # -- encoding -------------------------------------------------------------

    def encode_pair(self, b0, b1, b2):
        """Redundancy pair (Y, Pc~) for blocks (b0, b1, b2), or for stacks
        of them along a leading pair axis, one product per stage."""
        c = self.cons
        p_r = gf2.mat_mul(np.concatenate([b0, b1], axis=-1), c.g_i)
        # transposes keep the products' inner axis last: P_c^T, Y^T, Pc~^T
        p_c = gf2.mat_mul(np.concatenate([b1, b2], axis=-2).swapaxes(-1, -2),
                          c.f_i)
        lead = p_c.shape[:-2]
        # column-wise vec(P_c) and the pi_2-permuted vec(P_r), one row per pair
        rhs = (p_c.reshape(*lead, -1)
               ^ p_r.swapaxes(-1, -2).reshape(*lead, -1)[..., c.idx_pr_enc])
        y = c.solve(rhs).reshape(p_c.shape)
        pc = p_c ^ gf2.mat_mul(y, c.f_r)
        return engine.FFPair(y=y.swapaxes(-1, -2), pc=pc.swapaxes(-1, -2))

    def encode_payload(self, bits):
        frame = self._payload_frame(bits)
        blocks = np.stack(frame.blocks)
        enc = self.encode_pair(blocks[:-1:2], blocks[1::2], blocks[2::2])
        for j, pair in enumerate(frame.pairs):
            pair.y[...] = enc.y[j]
            pair.pc[...] = enc.pc[j]
        return frame

    def decode_frame(self, frame):
        """Sliding-window decode over pairs, columns then rows, in place."""
        engine.decode(frame.buf, self.plan, self.l_max)
        return frame
