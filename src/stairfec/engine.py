"""
Frame layout and the index-map decoding loop shared by the sc, ff and pff codecs.

A frame is one flat uint8 buffer: the transmitted bits in stream order
(information blocks B_1..B_n row by row, then, for ff, each pair's Y and
Pc~), followed by one reserved constant-zero slot that is never
transmitted, corrupted or flipped.  The frame's blocks and pairs are views
into that buffer.  The frozen reference block B_0 is a read-only view of
the zero slot.

Each codec compiles its geometry once by building a frame over the buffer
``arange(n_tx + 1)``: views of that frame hold buffer slots instead of
bits.  From it the codec takes

- ``info_idx``: the slots of the payload bits, in payload order;
- ``groups``: ``(component code, words)`` pairs, where ``words[w, i]`` is
  the slot of position i of full-length component word w.  B_0 and pff's
  structural pad positions map to the zero slot; ff's punctured X and Pr~
  positions map to the Y and Pc~ slots that mirror them;
- ``schedule``: the groups decoded at each window position, in order.

:func:`decode` is the one sliding-window decoder for all families.  Each
group decodes from a single snapshot of its words, so a word does not see
the flips made by other words of its own group; later groups see them.
So a group is one batch for ``code.decode_batch``; a word with a flip on
the zero slot is vetoed, and the other accepted flips go in with one
unbuffered ``np.bitwise_xor.at``, which acts like XORing them one at a time:
a slot flipped by two words, or twice by one (pff's S[i,i]), flips back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FFPair", "Frame", "FrameCodec", "decode"]


@dataclass
class FFPair:
    """Transmitted redundancy of one ff block pair: Y (r x M) and Pc~ (r x M)."""

    y: np.ndarray
    pc: np.ndarray


@dataclass
class Frame:
    """A frame buffer and its views; ``pairs`` is empty for sc and pff."""

    buf: np.ndarray
    blocks: list
    pairs: list

    @property
    def n_blocks(self):
        return len(self.blocks) - 1


def decode(buf, schedule, l_max):
    """Sliding-window bounded-distance decode of a frame buffer, in place.

    At each window position, sweep the position's groups up to ``l_max``
    times, stopping after a sweep in which no word was corrected.  A word's
    correction is vetoed when any of its flips lands on the zero slot.
    Returns the number of sweeps made.
    """
    zero = buf.size - 1
    sweeps = 0
    for groups in schedule:
        for _ in range(l_max):
            sweeps += 1
            changed = False
            for code, words in groups:
                # the tables hold valid slots only, so skip the bounds check
                snap = buf.take(words, mode="clip")
                _, rows, pos = code.decode_batch(snap)
                if rows.size == 0:
                    continue
                slots = words[rows, pos]
                vetoed = np.zeros(len(words), dtype=bool)
                vetoed[rows[slots == zero]] = True
                slots = slots[~vetoed[rows]]
                if slots.size:
                    # unbuffered: a slot listed twice flips back
                    np.bitwise_xor.at(buf, slots, 1)
                    changed = True
            if not changed:
                break
    return sweeps


class FrameCodec:
    """Frame layout and payload access common to the three family codecs.

    A subclass sets ``M`` and ``n_blocks``, calls :meth:`_compile` with its
    channel array shapes, and sets ``info_idx``, ``info_starts``,
    ``groups`` and ``schedule`` from the returned slot frame.
    """

    def _compile(self, shapes):
        """Fix the stream layout; returns the frame of buffer slots."""
        self.shapes = shapes
        self.n_tx = sum(rows * cols for rows, cols in shapes)
        return self.slot_frame()

    def _set_info(self, views):
        """Payload slots from the slot-frame views of the information blocks."""
        self.info_idx = np.concatenate([v.reshape(-1) for v in views])
        self.info_starts = np.cumsum([0] + [v.size for v in views[:-1]])

    def _frame(self, buf):
        arrays = self._arrays(buf)
        zero = np.broadcast_to(buf[-1:], (self.M, self.M))
        rest = arrays[self.n_blocks :]
        return Frame(
            buf=buf,
            blocks=[zero] + arrays[: self.n_blocks],
            pairs=[FFPair(y, pc) for y, pc in zip(rest[::2], rest[1::2])],
        )

    def _arrays(self, buf):
        out = []
        offset = 0
        for rows, cols in self.shapes:
            out.append(buf[offset : offset + rows * cols].reshape(rows, cols))
            offset += rows * cols
        return out

    def slot_frame(self):
        """A frame whose every entry holds its own buffer slot.

        The slot of a transmitted bit is its offset in the stream.
        """
        return self._frame(np.arange(self.n_tx + 1, dtype=np.intp))

    def frame_from_bits(self, bits):
        """A frame over a copy of ``n_tx`` received stream bits."""
        buf = np.zeros(self.n_tx + 1, dtype=np.uint8)
        buf[:-1] = bits
        return self._frame(buf)

    def _payload_frame(self, bits):
        """A frame holding the payload bits and zero redundancy."""
        bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
        if bits.size != self.payload_bits:
            raise ValueError(
                f"payload must have {self.payload_bits} bits, got {bits.size}"
            )
        buf = np.zeros(self.n_tx + 1, dtype=np.uint8)
        buf[self.info_idx] = bits
        return self._frame(buf)

    @property
    def payload_bits(self):
        return self.info_idx.size

    def extract_payload(self, frame):
        return frame.buf[self.info_idx]

    def channel_arrays(self, frame):
        """Transmitted arrays in stream order, as mutable views."""
        return self._arrays(frame.buf)
