"""
Partial feed-forward staircase codes.

A period of L+1 blocks repeats: L-1 standard staircase blocks, one
self-protection block S, and one all-information block D.  All blocks are
M x M with M = (k - r)/2, so the component code sees 2r structurally-zero
pad bits on standard and column words and the frame rate is exactly
1 - r/M.

The self-protection block packs two staged redundancy pairs into its
bottom 2r rows:

    S = [ M11  M12 ]        bottom = [ [Y1; Pc1~]  [Y2; Pc2~] ]
        [   bottom  ]

Stage 1 (an r x r system, A = G_r^T + F_r^T) fixes Y1 against the left
M - 2r columns; stage 2 (a 2r^2 x 2r^2 system B) fixes Y2 against the
right 2r columns, where a 2r x 2r permutation Pi scrambles how row words
read those columns.  All mirror permutations are trivial transposes:
X1 = Y1^T, Pr1~ = Pc1~^T and likewise for stage 2, so the punctured row
extensions are read straight out of S's columns.  B is never built: the
search decides each Pi on an r x r matrix N whose eigenvalues say whether
the r^2 x r^2 system R (:func:`reduced_b_matrix`) is invertible
(:func:`reduced_b_invertible`), and the encoder solves B through the
inverses of A and R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, gf2
from .bch import ComponentCode, code_pair

__all__ = [
    "stage2_h",
    "reduced_b_matrix",
    "reduced_b_invertible",
    "stage1_matrix",
    "PFFConstruction",
    "build_pff_construction",
    "search_pff_construction",
    "PFFCode",
]


def stage1_matrix(code_row, code_col):
    """The stage-1 system A_s = G_r^T + F_r^T of a PFF code pair, from the
    last r rows of each code's G_p; it does not depend on Pi.  ValueError
    if the row code gives no PFF geometry (k > r, k - r even, M > 2r)."""
    k, r = code_row.k, code_row.r
    if k <= r or (k - r) % 2:
        raise ValueError("PFF needs k > r with k - r even")
    if (k - r) // 2 <= 2 * r:
        raise ValueError("PFF needs M > 2r")
    return code_row.g_p[-r:].T ^ code_col.g_p[-r:].T


def stage2_h(g_b_t, f_r):
    """H = G1 + F_r G2 of the stage-2 reduction, with G_B~ = [G1; G2] split
    into r x r halves (see :func:`reduced_b_matrix`)."""
    r = len(f_r)
    return g_b_t[:r] ^ gf2.mat_mul(f_r, g_b_t[r:])


def reduced_b_matrix(a_small, g_b_t, f_r):
    """The r^2 x r^2 system R through which the stage-2 system B is
    solved, given an invertible stage-1 matrix A_s = ``a_small``.

    B maps Y2 (r x 2r) to K = (A_s Y2)^T + [I; F_r^T] Y2 G_B~.  Split
    Y2 = [U V], G_B~ = [G1; G2] and K = [K_t; K_b] into r x r halves;
    B(Y2) = K reads

        U^T A_s^T + U G1 + V G2 = K_t                        (top r rows)
        V^T A_s^T + F_r^T (U G1 + V G2) = K_b                (bottom r rows)

    The bottom rows plus F_r^T times the top rows give
    (V^T + F_r^T U^T) A_s^T = K_b + F_r^T K_t, so W = V + U F_r is
    A_s^-1 (K_b + F_r^T K_t)^T, and the top rows then read
    R(U) = U H + U^T A_s^T = K_t + W G2 with H = G1 + F_r G2.  So B is
    invertible exactly when R, returned here on the row-wise vec of U, is,
    and then Y2 = [U  U F_r + W].
    """
    r = len(a_small)
    h = stage2_h(g_b_t, f_r)
    # vec(U^T) = vec(U)[swap], so U^T A_s^T is (I (x) A_s) on columns swap
    swap = np.arange(r * r).reshape(r, r).T.reshape(-1)
    return (gf2.kron(gf2.identity(r), h.T)
            ^ gf2.kron(gf2.identity(r), a_small)[:, swap])


def _poly_mod(a, b):
    """Remainder of GF(2)[x] polynomials held as ints (bit i: x^i)."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _poly_gcd(a, b):
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _minimal_polynomial(n):
    """The minimal polynomial over GF(2) of the square matrix N = ``n`` as
    an int (bit i: x^i): x^k plus the combination of I, N, ..., N^(k-1)
    that gives the first power N^k that the lower ones span.  Powers are
    flattened into ints and reduced on a dict keyed by lowest set bit,
    each entry with the polynomial in N that gives it."""
    basis, power = {}, gf2.identity(len(n))
    while True:
        v = int.from_bytes(np.packbits(power, bitorder="little").tobytes(),
                           "little")
        poly = 1 << len(basis)  # every lower power added one entry
        while v and (v & -v) in basis:
            lower, lower_poly = basis[v & -v]
            v, poly = v ^ lower, poly ^ lower_poly
        if not v:
            return poly
        basis[v & -v] = v, poly
        power = gf2.mat_mul(power, n)


def reduced_b_invertible(a_inv, h):
    """Whether R(U) = U H + U^T A_s^T (:func:`reduced_b_matrix`) is
    invertible, decided on the r x r matrix N = A_s^-1 H^T, given
    A_s^-1 = ``a_inv`` and H (:func:`stage2_h`).

    R(U) = 0 reads U = N U^T, and R is invertible exactly when no two
    eigenvalues of N, over GF(2)'s algebraic closure and the same one twice
    included, multiply to 1 (the T-Sylvester equation: Byers & Kressner,
    SIAM J. Matrix Anal. Appl. 2006; De Teran & Dopico, Electron. J. Linear
    Algebra 2011).  An eigenvalue 0 pairs with none.  So with mu0 the
    minimal polynomial of N without its factors of x, R is invertible
    exactly when mu0 shares no root with its reversal, whose roots are the
    reciprocals of mu0's; that covers mu0(1) = 0, since 1 is its own
    reciprocal.
    """
    mu = _minimal_polynomial(gf2.mat_mul(a_inv, h.T))
    mu0 = mu >> ((mu & -mu).bit_length() - 1)
    return _poly_gcd(mu0, int(bin(mu0)[:1:-1], 2)) == 1


@dataclass
class PFFConstruction:
    """Design-time data for one PFF code.

    Takes the component codes, the 2r row-permutation indices ``pi``
    (G_B~ = G_B[pi]), ``a_inv``, the inverse of the stage-1 system
    ``a_small`` (:func:`stage1_matrix`), which does not depend on Pi, so a
    search inverts it once for all its candidates, and the mode.  ValueError
    if ``a_inv`` is not that inverse.  Derives the inverse of R (``u_inv``,
    :func:`reduced_b_matrix`), the one r^2 x r^2 inversion of a search,
    since the search builds a construction only for the Pi that
    :func:`reduced_b_invertible` accepts; SingularMatrixError if R is
    singular.  ``gp_std`` is the row code's G_p without its leading 2r pad
    rows.
    """

    code_row: ComponentCode
    code_col: ComponentCode
    pi: np.ndarray
    a_inv: np.ndarray
    mode: str = "custom"

    def __post_init__(self):
        row, col = self.code_row, self.code_col
        self.a_small = stage1_matrix(row, col)
        m_side = self.m_side = (row.k - row.r) // 2
        r = self.r = row.r
        self.pi = gf2.check_permutation(self.pi, 2 * r)
        self.g_i, self.g_r = row.g_p[: 2 * m_side], row.g_p[2 * m_side :]
        self.f_i, self.f_r = col.g_p[: 2 * m_side], col.g_p[2 * m_side :]
        self.gp_std = row.g_p[2 * r :]
        if not np.array_equal(gf2.mat_mul(self.a_small, self.a_inv),
                              gf2.identity(r)):
            raise ValueError("a_inv is not the inverse of A_s")
        m2 = m_side - 2 * r
        self.g_b_t = self.g_i[m2:m_side][self.pi]
        try:
            self.u_inv = gf2.invert(reduced_b_matrix(self.a_small, self.g_b_t, self.f_r))
        except gf2.SingularMatrixError as err:
            raise gf2.SingularMatrixError(
                f"U -> U H + U^T A_s^T is singular: {err}") from None
        self.colidx = gf2.invert_indices(self.pi)
        self.g_i_mod = np.vstack([self.g_i[:m2], self.g_b_t, self.g_i[m_side:]])
        gf2.freeze(self)

    def solve_stage2(self, known):
        """Y2 with B(Y2) = ``known`` (or stacks of them along leading axes),
        solved through A_s and R as :func:`reduced_b_matrix` derives."""
        r = self.r
        k_t, k_b = known[..., :r, :], known[..., r:, :]
        f_k_t = gf2.mat_mul(k_t.swapaxes(-1, -2), self.f_r).swapaxes(-1, -2)
        w = gf2.mat_mul(k_b ^ f_k_t, self.a_inv.T).swapaxes(-1, -2)
        rhs = k_t ^ gf2.mat_mul(w, self.g_b_t[r:])
        # R^-1 acts on the row-wise vec of U, held along the last axis
        u = gf2.mat_mul(rhs.reshape(*w.shape[:-2], -1),
                        self.u_inv.T).reshape(w.shape)
        return np.concatenate([u, gf2.mat_mul(u, self.f_r) ^ w], axis=-1)


def build_pff_construction(code_row, code_col, pi, a_inv, mode="custom"):
    """One search candidate, given A_s's inverse ``a_inv``;
    SingularMatrixError if R is singular."""
    return PFFConstruction(code_row, code_col, pi, a_inv, mode)


MAX_TRIES = 200  # random Pi that a search draws after the identity


def _candidates(r, rng):
    """Row permutations Pi of G_B: the identity, then ``MAX_TRIES`` drawn
    from ``rng`` lazily."""
    yield "identity", np.arange(2 * r)
    for _ in range(MAX_TRIES):
        yield "random", rng.permutation(2 * r)


@gf2.memoize
def search_pff_construction(m, t, s, *, seed=0):
    """Find a Pi making both staged systems invertible; identity first.

    The stage-1 system does not depend on Pi, so it is inverted once.  Each
    candidate is decided on its r x r matrix N (:func:`reduced_b_invertible`),
    and only the Pi kept builds its construction, which inverts its
    r^2 x r^2 system R.  Memoized like :func:`ff.search_construction`: one
    search per process and ``(m, t, s, seed)``, within
    :func:`gf2.memoize`'s budget.
    """
    code_row, code_col = code_pair(m, t, s)
    try:
        a_inv = gf2.invert(stage1_matrix(code_row, code_col))
    except gf2.SingularMatrixError as err:
        raise gf2.SingularMatrixError(
            f"no usable Pi found for (m={m}, t={t}, s={s}): {err}") from None
    r, m_side = code_row.r, (code_row.k - code_row.r) // 2
    g_b = code_row.g_p[m_side - 2 * r : m_side]
    f_r = code_col.g_p[2 * m_side :]
    for mode, pi in _candidates(r, np.random.default_rng(seed)):
        if reduced_b_invertible(a_inv, stage2_h(g_b[pi], f_r)):
            return build_pff_construction(code_row, code_col, pi, a_inv,
                                          mode=mode)
    raise gf2.SingularMatrixError(
        f"no usable Pi found for (m={m}, t={t}, s={s}): "
        "U -> U H + U^T A_s^T is singular for every candidate")


class PFFCode(engine.FrameCodec):
    """Encoder/decoder for a fixed-length partial feed-forward frame.

    Period q holds blocks q(L+1)+1 .. q(L+1)+L+1: L-1 standard blocks, S
    and D.  The stream carries every block.
    """

    family = "pff"

    def __init__(self, construction, L, n_periods, *, window=7, l_max=8):
        if L < 1:
            raise ValueError("L must be at least 1")
        if n_periods < 1:
            raise ValueError("need at least one period")
        c = self.cons = construction
        self.code, self.mode = c.code_row, c.mode
        m_side = self.M = construction.m_side
        r = self.r = construction.r
        self.L = L
        self.n_periods = self.length = n_periods
        self.n_blocks = n_periods * (L + 1)
        self.window = window
        self.l_max = l_max

        slots = self._compile([(m_side, m_side)] * self.n_blocks)
        blocks = slots.blocks
        m2 = m_side - 2 * r
        pad = np.full((m_side, 2 * r), slots.buf[-1])
        info = []
        # per period, L + 1 groups: the rows of each standard pair
        # [B_(i-1)^T  B_i], the columns of [M0; S], then the rows of S
        groups = []
        for base in range(0, self.n_blocks, L + 1):
            m0, s_blk, d_blk = blocks[base + L - 1 : base + L + 2]
            info += [b[:, : m_side - r] for b in blocks[base + 1 : base + L]]
            info += [s_blk[:m2], d_blk]
            groups += [
                (c.code_row, np.hstack([pad, prev.T, cur]))
                for prev, cur in zip(blocks[base : base + L - 1],
                                     blocks[base + 1 : base + L])
            ]
            groups += [
                (c.code_col, np.hstack([pad, m0.T, s_blk.T])),
                (c.code_row, np.hstack([s_blk[:, :m2], s_blk[:, m2 + c.colidx],
                                        d_blk, s_blk[m2:].T])),
            ]
        self._set_info(info)
        wper = min(max(2, round(window / (L + 1))), n_periods)
        self._set_plan(groups, [range(p * (L + 1), (p + wper) * (L + 1))
                                for p in range(n_periods - wper + 1)])

    @property
    def bits_per_period(self):
        return self.payload_bits // self.n_periods

    # -- encoding -------------------------------------------------------------

    def encode_sp_pair(self, prev, s_top, d_block):
        """The S block from its own top and its neighbours, or the S blocks
        of stacks of periods along a leading axis, one product per stage.

        Products are taken transposed where needed, so that the stacked
        factor is always on the left.
        """
        c = self.cons
        m_side, r = self.M, self.r
        m2 = m_side - 2 * r
        lead = s_top.shape[:-2]

        def tr(a):
            return a.swapaxes(-1, -2)

        def zeros(rows, cols):
            return np.zeros(lead + (rows, cols), dtype=np.uint8)

        m11, m12 = s_top[..., :m2], s_top[..., m2:]
        m01, m02 = prev[..., :m2], prev[..., m2:]
        m21, m22 = d_block[..., :m2, :], d_block[..., m2:, :]
        # stage 1, left M-2r columns, transposed: Y1^T and Pc1~^T
        p_r1 = gf2.mat_mul(
            np.concatenate([m11, m12[..., c.colidx], m21], axis=-1), c.g_i)
        p_c1 = gf2.mat_mul(
            tr(np.concatenate([zeros(2 * r, m2), m01, m11], axis=-2)), c.f_i)
        y1 = gf2.mat_mul(p_c1 ^ p_r1, c.a_inv.T)
        pc1 = p_c1 ^ gf2.mat_mul(y1, c.f_r)
        w1 = tr(np.concatenate([y1, pc1], axis=-1))
        # stage 2, right 2r columns
        p_c2 = tr(gf2.mat_mul(
            tr(np.concatenate([zeros(2 * r, 2 * r), m02, m12], axis=-2)), c.f_i))
        known = gf2.mat_mul(
            np.concatenate([w1, np.concatenate([zeros(r, 2 * r), p_c2], axis=-2),
                            m22], axis=-1),
            c.g_i_mod,
        ) ^ gf2.mat_mul(
            np.concatenate([zeros(2 * r, 2 * r), tr(m02), tr(m12)], axis=-1),
            c.f_i,
        )
        y2 = c.solve_stage2(known)
        pc2 = p_c2 ^ tr(gf2.mat_mul(tr(y2), c.f_r))
        bottom = np.concatenate(
            [w1, np.concatenate([y2, pc2], axis=-2)], axis=-1)
        return np.concatenate([s_top, bottom], axis=-2)

    def encode_payload(self, bits):
        frame = self._payload_frame(bits)
        m_side, L = self.M, self.L
        k = m_side - self.r
        # blocks by period: L - 1 standard blocks, S, D; each period's first
        # block follows the previous period's D (or B_0), all information
        periods = frame.buf[:-1].reshape(self.n_periods, L + 1, m_side, m_side)
        prev = np.concatenate([frame.blocks[0][None], periods[:-1, L]])
        for j in range(L - 1):
            cur = periods[:, j]
            cur[..., k:] = gf2.mat_mul(
                np.concatenate([prev.swapaxes(-1, -2), cur[..., :k]], axis=-1),
                self.cons.gp_std)
            prev = cur
        periods[:, L - 1] = self.encode_sp_pair(
            prev, periods[:, L - 1, : m_side - 2 * self.r], periods[:, L])
        return frame

    def decode_frame(self, frame):
        """Sliding-window decode over periods, in place."""
        engine.decode(frame.buf, self.plan, self.l_max)
        return frame
