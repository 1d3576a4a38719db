"""
Error-floor estimates, coding-gain gap, and minimal stall patterns.

The floor estimates count the dominant stall patterns: error sets where
every affected component word holds exactly t+1 errors, so bounded-distance
decoding never starts.  For conventional and partial feed-forward codes the
dominant pattern has (t+1)^2 errors split across a block and its
predecessor; for feed-forward codes the mirror spreading cuts it down to
t_r(t+1) errors, t_r = ceil((t+1)/2), using the transmitted column
redundancy.

The generators build one such pattern for a concrete code and certify it
against the real decoder: applied in full it must be a decoding fixed
point, and dropping any single error must make it fully correctable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "binary_entropy",
    "entropy_inv",
    "ncg_gap",
    "FloorEstimate",
    "ff_floor",
    "sc_floor",
    "pff_floor",
    "StallPattern",
    "apply_stall",
    "certify_stall",
    "gen_stall",
]


# -- capacity gap -----------------------------------------------------------


def binary_entropy(p):
    if not 0 < p < 1:
        raise ValueError("entropy argument must be in (0, 1)")
    # log1p keeps the second term, about p / ln 2, where 1 - p rounds to 1
    return -p * math.log2(p) - (1 - p) * math.log1p(-p) / math.log(2)


def entropy_inv(y):
    """The p in (0, 1/2] with h(p) = y, by bisection on the geometric
    midpoint from the smallest positive float, so the root keeps its
    relative precision at every scale; the smallest positive float when
    y is below its entropy."""
    if not 0 < y <= 1:
        raise ValueError("entropy value must be in (0, 1]")
    lo, hi = math.ulp(0.0), 0.5
    while True:
        # the product of the roots: lo * hi can underflow
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            return hi if binary_entropy(lo) < y else lo
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid


def _gain_db(p):
    # erfcinv(2p) = -Phi^-1(p) / sqrt(2), Phi the standard normal CDF
    return 20 * math.log10(-NormalDist().inv_cdf(p) / math.sqrt(2))


def ncg_gap(rate, p15):
    """Gap (dB) between the achieved and capacity net coding gain.

    Both gains reference BPSK over AWGN at output BER 1e-15; the capacity
    side uses the BSC crossover h^-1(1 - R) as its threshold.
    """
    p_th = entropy_inv(1 - float(rate))
    return abs(_gain_db(p_th) - _gain_db(p15))


# -- floor estimates --------------------------------------------------------


@dataclass(frozen=True)
class FloorEstimate:
    """Union-bound floor estimates, each capped at 1: beyond the small-p
    regime the sum over stall patterns exceeds 1, and 1 still bounds a
    probability."""

    family: str
    p: float
    bker: float
    ber: float
    weight: int


def _estimate(family, p, bker, ber, weight):
    return FloorEstimate(family, p, min(bker, 1.0), min(ber, 1.0), weight)


def ff_floor(m_side, r, t, p):
    """Dominant-stall floor for FF codes (pattern weight t_r(t+1))."""
    t_i = (t + 1) // 2
    t_r = t + 1 - t_i
    bker = math.comb(m_side, t_r) * math.comb(2 * r, t_r) * p ** (t_r * (t + 1))
    ber = bker * t_i * t_r / m_side**2
    return _estimate("ff", p, bker, ber, t_r * (t + 1))


def _square_floor(family, m_side, t, p):
    total = sum(
        math.comb(m_side, k) * math.comb(m_side, t + 1 - k) for k in range(t + 1)
    )
    bker = math.comb(m_side, t + 1) * total * p ** ((t + 1) ** 2)
    ber = bker * (t + 1) ** 2 / m_side**2
    return _estimate(family, p, bker, ber, (t + 1) ** 2)


def sc_floor(m_side, t, p):
    return _square_floor("sc", m_side, t, p)


def pff_floor(m_side, t, p):
    return _square_floor("pff", m_side, t, p)


# -- stall patterns ---------------------------------------------------------


@dataclass
class StallPattern:
    """A set of channel bits, as stream-bit offsets: indices into a frame's
    buffer, in the order write_stream emits the transmitted bits."""

    family: str
    entries: tuple

    @property
    def weight(self):
        return len(self.entries)


def apply_stall(codec, frame, pattern):
    for offset in pattern.entries:
        frame.buf[offset] ^= 1
    return frame


def certify_stall(codec, pattern, payload=None):
    """(is_fixed_point, every_single_deletion_corrected) for a pattern."""
    if payload is None:
        payload = np.zeros(codec.payload_bits, dtype=np.uint8)
    clean = codec.encode_payload(payload).buf
    frame = apply_stall(codec, codec.encode_payload(payload), pattern)
    corrupted = frame.buf.copy()
    codec.decode_frame(frame)
    fixed = (frame.buf == corrupted).all()
    deletions_ok = True
    for drop in range(pattern.weight):
        sub = StallPattern(
            pattern.family,
            tuple(e for i, e in enumerate(pattern.entries) if i != drop),
        )
        frame = codec.encode_payload(payload)
        apply_stall(codec, frame, sub)
        codec.decode_frame(frame)
        if not (frame.buf == clean).all():
            deletions_ok = False
            break
    return fixed, deletions_ok


def _gen_square_candidate(rng, t, m_side, info_cols, cur, prev):
    """(t+1)^2 errors: rows x cols split between a block and its
    predecessor, all in information positions; ``cur`` and ``prev`` are
    slot-frame blocks."""
    rows = rng.choice(info_cols, size=t + 1, replace=False)
    split = int(rng.integers(0, t + 2))
    cols_cur = rng.choice(info_cols, size=split, replace=False)
    cols_prev = rng.choice(m_side, size=t + 1 - split, replace=False)
    entries = []
    for a in rows:
        entries += [int(cur[a, c]) for c in cols_cur]
        entries += [int(prev[c, a]) for c in cols_prev]
    return StallPattern("sc", tuple(entries))


def _gen_sc_candidate(codec, rng):
    i = max(2, codec.n_blocks // 2)
    if i + 1 > codec.n_blocks:
        raise ValueError("frame too short for a split stall pattern")
    blocks = codec.slot_frame().blocks
    return _gen_square_candidate(
        rng, codec.code.t, codec.M, codec.M - codec.r, blocks[i], blocks[i - 1]
    )


def _gen_pff_candidate(codec, rng):
    """All (t+1)^2 errors inside a non-final all-information block."""
    if codec.n_periods < 2:
        raise ValueError("need at least two periods")
    q = (codec.n_periods - 1) // 2
    block = codec.slot_frame().blocks[q * (codec.L + 1) + codec.L + 1]
    t = codec.code.t
    m_side = codec.M
    rows = rng.choice(m_side, size=t + 1, replace=False)
    cols = rng.choice(m_side, size=t + 1, replace=False)
    entries = tuple(int(block[a, c]) for a in rows for c in cols)
    return StallPattern("pff", entries)


def _gen_ff_candidate(codec, rng):
    """t_r(t+1) errors: info bits on a t_r x t_r row/column grid plus the
    Y mirrors that extend each affected row word."""
    t = codec.code.t
    t_i = (t + 1) // 2
    t_r = t + 1 - t_i
    m_side, r = codec.M, codec.r
    j = codec.n_pairs // 2
    slots = codec.slot_frame()
    block = slots.blocks[2 * j + 1]
    y0 = slots.pairs[j].y[0, 0]
    # row word a of pair j reads X[a, u] from the Y slot at 2M + u
    x_slots = codec.groups[2 * j + 1][1][:, 2 * m_side : 2 * m_side + r]
    for _ in range(50):
        rows = sorted(int(v) for v in rng.choice(m_side, size=t_r, replace=False))
        # per row: the Y slot mirroring it into each column word it reaches
        col_sets = [{int(q - y0) % m_side: int(q) for q in x_slots[a]}
                    for a in rows]
        common = set(col_sets[0])
        for cs in col_sets[1:]:
            common &= set(cs)
        common -= set(rows)
        if len(common) < t_r:
            continue
        cols = sorted(rng.choice(sorted(common), size=t_r, replace=False))
        entries = []
        for i, a in enumerate(rows):
            entries += [int(block[a, cols[(i + l) % t_r]]) for l in range(t_i)]
            entries += [col_sets[i][c] for c in cols]
        return StallPattern("ff", tuple(entries))
    return None


def gen_stall(codec, seed=0, max_tries=100):
    """A certified minimal stall pattern for the given codec.

    Candidates are drawn by family-specific geometry and re-drawn whenever
    a miscorrection breaks the fixed-point or minimality certificate.
    """
    rng = np.random.default_rng(seed)
    gens = {"sc": _gen_sc_candidate, "ff": _gen_ff_candidate,
            "pff": _gen_pff_candidate}
    gen = gens[codec.family]
    for _ in range(max_tries):
        pattern = gen(codec, rng)
        if pattern is None:
            continue
        fixed, minimal = certify_stall(codec, pattern)
        if fixed and minimal:
            return pattern
    raise RuntimeError(
        f"no certified stall pattern found in {max_tries} tries"
    )
