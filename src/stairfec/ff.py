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
linear system whose matrix A is built here and inverted once per
construction.

The shifted-block-diagonal permutation family keeps the mirror images of
any codeword spread over distinct words, which is what pushes the error
floor down; when 2r >= M that family cannot exist and the search falls
back to random permutations.  A shifted pair makes A block-circulant, so
when M is even the search decides each candidate on A reduced modulo
z^M' - 1 (:func:`fold_a_matrix`), an rM' x rM' system for the odd part M'
of M, and inverts only the A that passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, gf2
from .bch import ComponentCode, code_pair

__all__ = [
    "transpose_indices",
    "shifted_block_indices",
    "low_ef_indices",
    "build_a_matrix",
    "fold_a_matrix",
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
    column j up cyclically by s_j.
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    i = np.arange(m)
    return (np.arange(shifts.size)[:, None] * m + (i[None, :] + shifts[:, None]) % m).reshape(-1)


def low_ef_indices(m_side, r):
    """The low-error-floor permutation pair (pi_1, pi_2); needs 2r < M.

    pi_1 uses shifts M-1..M-r and pi_2 shifts M-r-1..M-2r, so the mirror of
    row i of a channel block lands in columns i+1..i+2r mod M, all distinct.
    """
    if 2 * r >= m_side:
        raise ValueError("low-error-floor permutations need 2r < M")
    s1 = m_side - 1 - np.arange(r)
    s2 = m_side - r - 1 - np.arange(r)
    return shifted_block_indices(s1, m_side), shifted_block_indices(s2, m_side)


def build_a_matrix(m_side, r, g_r, f_r, pi1, pi2):
    """The Mr x Mr system matrix tying Y to its own parity contributions.

    Implements A = I_M (x) F_r^T + T pi_2 T (I_M (x) G_r^T) T pi_1^{-1} T
    where T alternates between the two vec-transposition permutations; the
    permutation legs are composed as index arrays, and A is the only
    Mr x Mr array built: the G_r term is scattered straight into it and
    F_r^T XORed into its diagonal blocks in place.
    """
    t_rm = transpose_indices(r, m_side)   # vec(Y) -> vec(Y^T), Y r x M
    t_mr = transpose_indices(m_side, r)   # vec(X) -> vec(X^T), X M x r
    inv1 = gf2.invert_indices(pi1)
    # vec(Y) -> vec(X^T): transpose, un-permute, transpose again.
    idx_pre = t_rm[inv1][t_mr]
    # G_r^T acts column-wise on X^T (r x M): vec result -> pi_2 -> transpose.
    idx_post = t_rm[pi2][t_mr]
    n = m_side * r
    a = gf2.zeros(n, n)
    # row p of the G_r term is row idx_post[p] of I_M (x) G_r^T, which holds
    # row idx_post[p] % r of G_r^T in block idx_post[p] // r, with its
    # columns moved to idx_pre
    block, row = np.divmod(idx_post, r)
    a[np.arange(n)[:, None], idx_pre[block[:, None] * r + np.arange(r)]] = \
        g_r.T[row]
    diag = np.arange(m_side)
    a.reshape(m_side, r, m_side, r)[diag, :, diag] ^= f_r.T
    return a


def fold_a_matrix(a, m_side, r):
    """The rM' x rM' system that is singular exactly when A is, where
    M = 2^e M' with M' odd; None when A is not block-circulant or M is odd.

    A block-circulant A, block (i, j) = C_((j - i) mod M), is the r x r
    matrix A(z) = sum_c C_c z^c over GF(2)[z]/(z^M - 1) (the module view of
    quasi-cyclic codes; Ling & Sole, IEEE Trans. Inf. Theory 2001).  It is
    invertible exactly when det A(z) is prime to z^M - 1.  Over GF(2),
    z^M - 1 = (z^M' - 1)^(2^e) has the irreducible factors of z^M' - 1, so
    that holds exactly when A(z) mod (z^M' - 1) is invertible: the block
    circulant whose first block row is A's with block c XORed into block
    c mod M'.  Every shift-based candidate gives a block-circulant A; the
    check is exact, so any other A goes to the dense decision.
    """
    odd = m_side // (m_side & -m_side)
    if odd == m_side:
        return None
    blocks = a.reshape(m_side, r, m_side, r)
    first = blocks[0]
    # block row i is the first one rotated right by i blocks: the window of
    # the doubled row that starts at block M - i; compared a block row at a
    # time, so a random A fails at its second one
    double = np.concatenate([first, first], axis=1)
    if not all(np.array_equal(blocks[i], double[:, m_side - i : 2 * m_side - i])
               for i in range(1, m_side)):
        return None
    folded = np.bitwise_xor.reduce(first.reshape(r, -1, odd, r), axis=1)
    i = np.arange(odd)
    return (folded[:, (i[None, :] - i[:, None]) % odd]
            .transpose(1, 0, 2, 3).reshape(odd * r, odd * r))


@dataclass
class FFConstruction:
    """Everything fixed at design time for one FF code.

    Takes the component codes, the permutation pair and the mode.  Derives
    M, r, the parity splits G_p = [G_i; G_r] and F_p = [F_i; F_r], A^-1,
    the mirror maps and the encoder's operand; SingularMatrixError if A is
    not invertible.
    """

    code_row: ComponentCode
    code_col: ComponentCode
    pi1: np.ndarray
    pi2: np.ndarray
    mode: str = "custom"

    def __post_init__(self):
        row, col = self.code_row, self.code_col
        if row.k <= row.r or (row.k - row.r) % 2:
            raise ValueError("FF needs k > r with k - r even")
        m_side = self.m_side = (row.k - row.r) // 2
        r = self.r = row.r
        self.pi1 = gf2.check_permutation(self.pi1, m_side * r)
        self.pi2 = gf2.check_permutation(self.pi2, m_side * r)
        self.g_i, self.g_r = row.g_p[: 2 * m_side], row.g_p[2 * m_side :]
        self.f_i, self.f_r = col.g_p[: 2 * m_side], col.g_p[2 * m_side :]
        a = build_a_matrix(m_side, r, self.g_r, self.f_r, self.pi1, self.pi2)
        folded = fold_a_matrix(a, m_side, r)
        if folded is not None:  # a candidate is rejected on the fold
            try:
                gf2.invert(folded)
            except gf2.SingularMatrixError as err:
                raise gf2.SingularMatrixError(
                    f"A(z) mod (z^{len(folded) // r} - 1) is singular: "
                    f"{err}") from None
        self.a_inv = gf2.invert(a)
        del a  # before the operand's padded copy of A^-1, as large as A
        t_rm = transpose_indices(r, m_side)
        t_mr = transpose_indices(m_side, r)
        # vec(X) = vec(Y)[idx_y_to_x] and vec(Pr~) = vec(Pc~)[idx_pc_to_pr]
        self.idx_y_to_x = t_rm[gf2.invert_indices(self.pi1)]
        self.idx_pc_to_pr = t_rm[gf2.invert_indices(self.pi2)]
        # vec(P_r) -> vec((pi_2(P_r))^T), used on the encoder side
        self.idx_pr_enc = self.pi2[t_mr]
        self.op_a_inv = gf2.operand(self.a_inv)  # packed once for the encoder
        gf2.freeze(self)


def build_construction(code_row, code_col, pi1, pi2, mode="custom"):
    """One search candidate; SingularMatrixError if A is not invertible."""
    return FFConstruction(code_row, code_col, pi1, pi2, mode)


def _candidates(m_side, r, rng, max_tries):
    """Permutation pairs in order of preference, drawn from ``rng`` lazily."""
    if 2 * r < m_side:
        yield "low_ef", low_ef_indices(m_side, r)
        # Any pair with 2r pairwise-distinct shifts spreads every row's
        # mirrors over distinct column words, same as the canonical pair.
        for _ in range(max_tries):
            sh = rng.choice(m_side, size=2 * r, replace=False)
            yield "block_shift_spread", (shifted_block_indices(sh[:r], m_side),
                                         shifted_block_indices(sh[r:], m_side))
    for _ in range(max_tries):
        s1 = rng.integers(0, m_side, size=r)
        s2 = rng.integers(0, m_side, size=r)
        yield "block_shift", (shifted_block_indices(s1, m_side),
                              shifted_block_indices(s2, m_side))
    for _ in range(max_tries):
        yield "random", (rng.permutation(m_side * r), rng.permutation(m_side * r))


@gf2.memoize
def search_construction(m, t, s, *, seed=0, max_tries=200):
    """Find an invertible construction for the given component parameters.

    Order of preference: the low-error-floor shifted pair, then random
    shifted-block-diagonal pairs, then unstructured random permutations.
    A process searches once per ``(m, t, s, seed, max_tries)`` and shares
    the read-only result while it fits the byte budget of
    :func:`gf2.memoize`; a failed search is repeated on every call.
    """
    code_row, code_col = code_pair(m, t, s)
    m_side = (code_row.k - code_row.r) // 2
    last_err = None
    for mode, (pi1, pi2) in _candidates(m_side, code_row.r,
                                        np.random.default_rng(seed), max_tries):
        try:
            return build_construction(code_row, code_col, pi1, pi2, mode=mode)
        except gf2.SingularMatrixError as err:
            last_err = str(err)  # not err: its traceback would pin this frame
    raise gf2.SingularMatrixError(
        f"no invertible permutation pair found for (m={m}, t={t}, s={s}): {last_err}"
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
        y = gf2.apply(c.op_a_inv, rhs).reshape(p_c.shape)
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
