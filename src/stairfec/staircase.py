"""
Conventional staircase codes over a shortened BCH component code.

A frame is a chain of M x M blocks B_1..B_L preceded by the all-zero
reference block B_0 (never transmitted).  Block i carries M*(M-r)
information bits in its left columns; the right r columns hold parity
chosen so every row of [B_(i-1)^T  B_i] is a component codeword.

Decoding slides a window of W blocks over the chain and runs up to l_max
sweeps per position.  The rows of one [B_(i-1)^T  B_i] decode from a single
snapshot of those two blocks; their corrections go into the frame at once,
so the later pairs of the same sweep see them.
"""

from __future__ import annotations

import numpy as np

from . import engine, gf2

__all__ = ["StaircaseCode"]


class StaircaseCode(engine.FrameCodec):
    """Encoder/decoder pair for a staircase chain of fixed length."""

    family = "sc"

    def __init__(self, code, n_blocks, *, window=7, l_max=8):
        if code.n % 2:
            raise ValueError("staircase codes need even n")
        if n_blocks < 1:
            raise ValueError("need at least one block")
        self.code = code
        self.M = code.n // 2
        self.r = code.r
        if self.M <= self.r:
            raise ValueError("block side must exceed r")
        self.n_blocks = self.length = n_blocks
        self.window = window
        self.l_max = l_max

        blocks = self._compile([(self.M, self.M)] * n_blocks).blocks
        self._set_info([b[:, : self.info_cols] for b in blocks[1:]])
        # group i - 1: the rows of [B_(i-1)^T  B_i]
        w = min(window, n_blocks + 1)
        self._set_plan([(code, np.hstack([prev.T, cur]))
                        for prev, cur in zip(blocks, blocks[1:])],
                       [range(p, p + w - 1) for p in range(n_blocks + 2 - w)])

    @property
    def info_cols(self):
        return self.M - self.r

    def encode_payload(self, bits):
        frame = self._payload_frame(bits)
        k = self.info_cols
        for prev, cur in zip(frame.blocks, frame.blocks[1:]):
            cur[:, k:] = gf2.mat_mul(np.hstack([prev.T, cur[:, :k]]),
                                     self.code.g_p)
        return frame

    def decode_frame(self, frame):
        """Sliding-window decode, in place."""
        engine.decode(frame.buf, self.plan, self.l_max)
        return frame
