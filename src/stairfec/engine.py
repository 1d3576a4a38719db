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

- ``info_pieces``: the payload's information blocks as runs of strided
  views of the buffer, in payload order (:meth:`FrameCodec.info_blocks`);
- ``groups``: ``(component code, words)`` pairs, where ``words[w, i]`` is
  the slot of position i of full-length component word w.  B_0 and pff's
  structural pad positions map to the zero slot; ff's punctured X and Pr~
  positions map to the Y and Pc~ slots that mirror them;
- ``windows``: the groups decoded at each window position, in order.

:class:`Plan` compiles these into syndrome-domain tables once per codec, and
:func:`decode` is the one sliding-window decoder for all families.  It works
on syndromes, the way hardware decoders of product-like codes do (Smith,
Kschischang et al., J. Lightw. Technol. 2012).  A word's syndrome state is
its key: its odd syndromes S_1, S_3, ..., packed m bits apiece into one
uint64 (``ComponentCode.syndrome_keys``; codes with t*m > 64 take
ceil(t / floor(64/m)) of them).  Keys are linear, so XORing the key of a
unit error into a word's key is the same as XORing syndromes:

- per frame, every word's key comes from float32 matmuls on strided views
  of the frame (:meth:`Plan.syndromes`), or, for a buffer known by its few
  ones, from their unit-error keys alone (:meth:`Plan.error_keys`, the flip
  scatter below): Monte Carlo decodes a frame's error pattern, whose keys
  are those of the received frame, since a codeword's are zero;
- per group visit, only the words whose key is nonzero and has changed
  since their last decode go to ``code.decode_syndromes``: there is no
  gather and no screen, and a word that failed or was vetoed is not
  decoded again until a flip reaches it.  Its ``(words, t)`` position
  matrix indexes the words' rows of the padded word table, whose column n
  holds -1 (no slot) and column n + 1 the zero slot, so one gather gives
  every correction's slots and turns a failure into a flip on the zero
  slot;
- per flip, the flipped position's key is XORed into the key of every word
  that holds the slot, by one 1-D ``np.bitwise_xor.at`` over the flat key
  state.

A visit is about 35 small numpy calls, so their fixed cost is most of it.
With one-word keys, on a 2-vCPU Xeon VM with numpy 2.4, the flip scatter
takes 1.4 us and the liveness test ``keys[touched] != 0`` 1.2 us, against
2.2 and 3.5 us for the same steps on a ``(words, t)`` uint16 matrix of
field ints; the live scan ``live[a:b].nonzero()`` takes 0.6 us against
2.2 us for ``np.flatnonzero``.

Each group decodes from a single snapshot of its words, so a word does not
see the flips made by other words of its own group; later groups see them.
A group's syndromes at its turn are those of a fresh snapshot, so the group
is one batch.  A word with a flip on the zero slot, a failure included, is
vetoed.  The decode reads the buffer only through keys, so the other
accepted flips go in once, at the end, with one unbuffered
``np.bitwise_xor.at``: XOR parity does not depend on order, and a slot
flipped by two words, or twice by one (pff's S[i,i]), flips back, as its
syndrome contribution did.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["FFPair", "Frame", "FrameCodec", "Plan", "decode"]


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


class Plan:
    """A codec's groups and window schedule, compiled for syndrome decoding.

    ``groups`` is a list of ``(code, words)`` pairs, ``windows`` lists the
    indices of the groups each window position decodes, in order, and
    ``n_slots`` is the buffer size, zero slot included.  The compiled
    ``groups``, ``windows``, ``stacks`` and ``pieces`` are tuples and every
    table is read-only, so one plan can serve any number of decodes at once.

    The word tables of ``windows`` and ``stacks`` are padded with two
    columns, which the positions n and n + 1 of
    ``ComponentCode.decode_syndromes`` read: -1, no slot, and the zero
    slot.  Those of ``groups`` are views of their first n columns.

    Words are numbered code by code, each code's groups in turn, so the
    pieces of a code (``pieces``) sum into one block of keys.  A piece
    ``(shape, (a, d), read, matrix)``, ``shape`` ``(count, rows, span)``,
    adds for each k < count slice k of ``read`` (:func:`_read`: a strided
    view of the float32 frame or a table of its slots) times ``matrix`` to
    the odd-syndrome sums of the code's words a + k*d onwards.  A word's row
    of ``syndromes`` is its key (``ComponentCode.syndrome_keys``): ``width``
    uint64 cells, zero-padded to the widest code; one cell wherever
    t*m <= 64, as in every benchmark code.  Row k of ``hkeys`` is the key
    of a unit error at column k, each code's n columns in turn.  Column
    ``s`` of ``flip_cells`` and ``flip_keys`` lists, for every (word,
    position) holding slot s, the word's ``width`` cells in the flat key
    state and the matching cells of the flat ``hkeys``: XORing the one into
    the other keeps the word in step when slot s flips.  A slot listed
    twice in one word has two entries; unused entries name the cells of a
    scratch row after the last word, and the zero slot has none.
    """

    def __init__(self, groups, windows, n_slots):
        codes = list({id(code): code for code, _ in groups}.values())
        self.width = max(code.key_words for code in codes)
        self.n_slots = n_slots
        self.n_words = sum(len(words) for _, words in groups)
        n_keys = sum(code.n for code in codes)
        zero = n_slots - 1
        # a holder's id packs its word and its column key: word << shift | key
        shift = (n_keys - 1).bit_length()
        id_type = np.int32 if (self.n_words + 1) << shift < 2**31 else np.int64
        # every code's padded word table is a C-ordered view of one slot array
        slots = np.empty(sum(len(words) * (code.n + 2) for code, words in groups),
                         dtype=np.intp)
        ids = np.zeros(slots.size, dtype=id_type)
        self.hkeys = np.zeros((n_keys, self.width), dtype=np.uint64)
        stacks = []  # (code, padded word table, id of its first word)
        first = [0] * len(groups)
        place = [None] * len(groups)  # (padded code table, first row)
        n_words = key_base = start = 0
        for code in codes:
            mine = [i for i, (c, _) in enumerate(groups) if c is code]
            rows = sum(len(groups[i][1]) for i in mine)
            end = start + rows * (code.n + 2)
            table = slots[start:end].reshape(rows, code.n + 2)
            np.concatenate([groups[i][1] for i in mine], out=table[:, : code.n])
            # the padded columns hold the zero slot, which no word holds, until
            # the flip table is compiled
            table[:, code.n :] = zero
            ids[start:end].reshape(rows, code.n + 2)[:, : code.n] = (
                (np.arange(n_words, n_words + rows, dtype=id_type)[:, None]
                 << shift) + np.arange(key_base, key_base + code.n,
                                       dtype=id_type))
            stacks.append((code, table, n_words))
            row = 0
            for i in mine:
                first[i] = n_words + row
                place[i] = (table, row)
                row += len(groups[i][1])
            n_words += rows
            self.hkeys[key_base : key_base + code.n, : code.key_words] = (
                code.column_keys)
            key_base += code.n
            start = end
        self._compile_flips(slots, ids, n_slots, shift)
        for code, table, _ in stacks:
            table[:, code.n] = -1  # no slot
            table.setflags(write=False)
        slots.setflags(write=False)
        # views taken of the read-only tables are read-only too
        padded = [table[row : row + len(words)]
                  for (table, row), (_, words) in zip(place, groups)]
        self.stacks = tuple(stacks)
        self.groups = tuple((code, view[:, : code.n])
                            for (code, _), view in zip(groups, padded))
        self.windows = tuple(tuple((groups[i][0], padded[i], first[i])
                                   for i in window) for window in windows)
        for table in (self.hkeys, self.flip_cells, self.flip_keys):
            table.setflags(write=False)

    def _compile_flips(self, slots, ids, n_slots, shift):
        """Tabulate the holders of each slot from every entry's slot and id.

        Each pass scatters the remaining entries' ids into a new row; an
        entry whose id did not land, because another holder of its slot
        took the place, goes on to the next row.  Each row then widens into
        ``width`` rows of cells.
        """
        zero = n_slots - 1
        scratch = self.n_words << shift
        rows = []
        while slots.size:
            row = np.full(n_slots, scratch, dtype=ids.dtype)
            row[slots] = ids
            lost = (row[slots] != ids) & (slots != zero)
            rows.append(row)
            slots, ids = slots[lost], ids[lost]
        table = np.stack(rows)
        table[:, zero] = scratch
        width = self.width
        words = (table >> shift).astype(
            np.min_scalar_type((self.n_words + 1) * width - 1))
        keys = (table & ((1 << shift) - 1)).astype(
            np.min_scalar_type(self.hkeys.size - 1))
        words *= width
        keys *= width
        cell = np.arange(width)[:, None, None]
        self.flip_cells = (words + cell.astype(words.dtype)).reshape(
            -1, n_slots)
        self.flip_keys = (keys + cell.astype(keys.dtype)).reshape(-1, n_slots)

    @functools.cached_property
    def pieces(self):
        """Per code, ``(code, first word, words, pieces)``.  Its groups'
        pieces (:func:`_pieces`) of one view shape ``(rows, strides)`` and
        equal check rows, at evenly stepped words and offsets, merge into
        one, so copies of check rows (pff's, one per period) are kept once.
        Compiled at the first :meth:`syndromes`, so a plan decoded from
        :meth:`error_keys` alone compiles none."""
        out = []
        for code, table, first in self.stacks:
            a, classes, pieces = 0, {}, []
            for words in [words for c, words in self.groups if c is code]:
                for *key, offset, matrix in _pieces(code, words, a,
                                                    self.n_slots - 1):
                    classes.setdefault((*key, matrix.shape, matrix.tobytes()),
                                       (matrix, []))[1].append((a, offset))
                a += len(words)
            for (rows, strides, gather, *_), (matrix, at) in classes.items():
                for (b, offset), (d, jump), count in _runs(at, rows):
                    shape = count, rows, len(matrix)
                    read = offset, (jump,) + strides
                    if gather:
                        read = np.ndarray(shape, table.dtype, table, *read)
                    pieces.append((shape, (b, d), read, matrix))
            out.append((code, first, a, tuple(pieces)))
        return tuple(out)

    def syndromes(self, buf):
        """The key of every word of a frame buffer, plus a scratch row."""
        keys = np.zeros((self.n_words + 1, self.width), dtype=np.uint64)
        f = buf.astype(np.float32)
        for code, first, rows, pieces in self.pieces:
            # float32 sums of bits are exact below 2**24
            sums = np.zeros((rows, code._check_bits.shape[1]), np.float32)
            row, cell = sums.strides
            for shape, (a, d), read, matrix in pieces:
                into = np.ndarray(shape[:2] + sums.shape[1:], np.float32, sums,
                                  a * row, (d * row, row, cell))
                into += _read(f, read, shape) @ matrix
            keys[first : first + rows, : code.key_words] = code._keys(
                sums.astype(np.int64) & 1)
        return keys

    def error_keys(self, slots):
        """The keys of a buffer that is zero bar a one at each of ``slots``
        (the zero slot excluded), plus a scratch row: :meth:`syndromes` of
        that buffer, from the unit-error keys of its ones alone."""
        keys = np.zeros((self.n_words + 1, self.width), dtype=np.uint64)
        self.flip(keys.reshape(-1), slots)
        return keys

    def flip(self, cells, slots):
        """XOR the key of a unit error at each of ``slots`` into every word
        that holds it, in the flat key state ``cells``; unbuffered, so a
        slot listed twice flips back.  Returns the cells touched."""
        touched = self.flip_cells.take(slots, axis=1).reshape(-1)
        np.bitwise_xor.at(cells, touched, self.hkeys.reshape(-1)[
            self.flip_keys.take(slots, axis=1).reshape(-1)])
        return touched


def _pieces(code, words, a, zero):
    """The ``(rows, strides, gather, offset, matrix)`` pieces of a group
    whose ``(rows, n)`` slot table holds words a.. of its code.  Affine
    columns (word w holds slot c + w * step) of one step, sorted by c,
    cluster where c moves by their least gap g, or 2g over a hole; a cluster
    reads the float32 buffer's strided view ``(c, step, g)`` against its
    positions' check rows: a view of ``code._check_bits`` where these run in
    order, else a copy, summing a slot that a word lists twice (pff's
    S[i,i]).  Zero-slot columns read 0 and are skipped; the rest (ff's
    wrapped mirror shifts) are gathered by a view of the word table.
    """
    bits = code._check_bits
    rows = len(words)
    size = np.dtype(np.float32).itemsize  # the view's strides are in bytes
    pad = (words == zero).all(axis=0)
    step = (words[-1] - words[0]) // max(rows - 1, 1)
    affine = ~pad & (np.diff(words, axis=0) == step).all(axis=0)
    out = []
    odd = np.flatnonzero(~affine & ~pad)
    if odd.size:
        lo, hi = odd[0], odd[-1] + 1
        out.append((rows, words.strides, True,
                    a * words.strides[0] + lo * words.strides[1], bits[lo:hi]))
        affine[lo:hi] = False
    for s in sorted(set(step[affine].tolist())):
        cols = np.flatnonzero(affine & (step == s))
        cols = cols[np.argsort(words[0, cols], kind="stable")]
        gaps = np.diff(words[0, cols])
        g = gaps[gaps > 0].min(initial=gaps.sum() + 1)
        for part in np.split(cols, np.flatnonzero((gaps > 2 * g)
                                                   | (gaps % g != 0)) + 1):
            k = (words[0, part] - words[0, part[0]]) // g
            if (k == np.arange(k.size)).all() and (np.diff(part) == 1).all():
                matrix = bits[part[0] : part[-1] + 1]
            else:
                matrix = np.zeros((k[-1] + 1, bits.shape[1]), np.float32)
                np.add.at(matrix, k, bits[part])
                matrix.setflags(write=False)
            out.append((rows, (size * s, size * int(g)), False,
                        size * int(words[0, part[0]]), matrix))
    return out


def _runs(starts, apart):
    """Split ``starts``, tuples of ints, into runs that step evenly, by at
    least ``apart`` in their first entry, as ``(first, step, count)``."""
    runs = []
    for start in starts:
        if runs:
            first, step, count = runs[-1]
            move = tuple(x - f - (count - 1) * s
                         for x, f, s in zip(start, first, step))
            if move[0] >= apart and (count == 1 or move == step):
                runs[-1] = first, move, count + 1
                continue
        runs.append((start, (apart,) + (0,) * (len(start) - 1), 1))
    return runs


def _read(f, read, shape):
    """A piece's ``shape`` words of the float32 buffer ``f``: by a table of
    slots (no bounds check), or a strided view ``(offset, strides)``."""
    if isinstance(read, np.ndarray):
        return f.take(read, mode="clip")
    return np.ndarray(shape, np.float32, f, *read)


_ONE = np.uint8(1)  # a scalar of the buffer's dtype: no cast per flip


def decode(buf, plan, l_max, keys=None):
    """Sliding-window bounded-distance decode of a frame buffer, in place.

    At each window position, sweep the position's groups up to ``l_max``
    times, stopping after a sweep in which no word was corrected.  A word's
    correction is vetoed when any of its flips lands on the zero slot.
    ``keys``, when given, must be the keys of ``buf``: word rows equal to
    those of ``plan.syndromes(buf)``, as ``plan.error_keys`` gives them for
    a buffer known by its ones; the decode updates them in place and reads
    the bits of ``buf`` only through them.  Returns ``(sweeps, keys)``: the
    number of sweeps made and the kept keys, whose word rows equal those of
    ``plan.syndromes(buf)`` for the decoded buffer (the last row is
    scratch).
    """
    if keys is None:
        keys = plan.syndromes(buf)
    cells = keys.reshape(-1)
    width = plan.width
    # a word is live when its key is nonzero and has changed since its last
    # decode; a decode that changed nothing would change nothing again
    live = keys.any(axis=1)
    zero = buf.size - 1
    flips = []  # the slots of accepted corrections
    sweeps = 0
    for window in plan.windows:
        for _ in range(l_max):
            sweeps += 1
            changed = False
            for code, words, first in window:
                rows = live[first : first + len(words)].nonzero()[0]
                if rows.size == 0:
                    continue
                ids = first + rows
                live[ids] = False
                # position n reads -1 and a failure's n + 1 the zero slot
                slots = words[rows[:, None],
                              code.decode_syndromes(keys.take(ids, axis=0))]
                if slots.max() == zero:  # the zero slot is the last one
                    slots = slots[(slots != zero).all(axis=1)]
                    if slots.size == 0:
                        continue
                slots = slots[slots >= 0]  # unused columns read -1
                flips.append(slots)
                touched = plan.flip(cells, slots)
                if width == 1:
                    live[touched] = cells[touched] != 0
                else:
                    touched //= width
                    live[touched] = keys[touched].any(axis=1)
                changed = True
            if not changed:
                break
    if flips:
        # the decode read buf only through keys, and XOR parity is
        # order-free: one unbuffered pass, so a slot listed twice flips back
        np.bitwise_xor.at(buf, np.concatenate(flips), _ONE)
    return sweeps, keys


class FrameCodec:
    """Frame layout and payload access common to the three family codecs.

    A subclass sets ``code`` (ff/pff: the row code), ``M``, ``n_blocks``,
    ``length``, ``window``, ``l_max`` and, where it has them, ``L`` and
    ``mode``; calls :meth:`_compile` with its channel array shapes; and
    from the returned slot frame sets ``info_pieces``, ``info_starts`` and
    ``payload_bits`` (:meth:`_set_info`) and ``plan`` and ``groups``
    (:meth:`_set_plan`).
    The compiled tables are read-only.  ``sim.build_codec`` sets ``seed``.
    """

    L = 0
    mode = None
    seed = None

    def describe(self):
        """The codec's identity, its derived sizes and its component code."""
        return {
            "family": self.family,
            "m": self.code.m,
            "t": self.code.t,
            "s": self.code.s,
            "L": self.L,
            "length": self.length,
            "seed": self.seed,
            "M": self.M,
            "window": self.window,
            "l_max": self.l_max,
            "mode": self.mode,
            "code": self.code.descriptor(),
        }

    def identity(self):
        """The ``sim.build_codec`` arguments that rebuild this codec, bar
        ``window`` and ``l_max``; ValueError if build_codec did not make it."""
        if self.seed is None:
            raise ValueError(f"this {self.family} codec was not made by "
                             "build_codec, so no seed names its construction")
        desc = self.describe()
        return {name: desc[name]
                for name in ("family", "m", "t", "s", "L", "length", "seed")}

    def _compile(self, shapes):
        """Fix the stream layout; returns the frame of buffer slots."""
        self.shapes = tuple(shapes)
        self.n_tx = sum(rows * cols for rows, cols in shapes)
        return self.slot_frame()

    def _set_info(self, views):
        """Payload access from the slot-frame views of the information
        blocks, in payload order: each run of views of one shape whose first
        slots step evenly becomes an ``(offset, shape, strides)`` piece of a
        uint8 buffer, ``shape`` ``(blocks, rows, cols)``."""
        self.info_starts = np.cumsum([0] + [v.size for v in views[:-1]])
        self.info_starts.setflags(write=False)
        self.payload_bits = sum(v.size for v in views)
        self.info_pieces = tuple(
            (offset, (count,) + shape, (jump,) + strides)
            for (shape, strides), run in itertools.groupby(
                views, lambda v: (v.shape, tuple(s // v.itemsize
                                                 for s in v.strides)))
            for (offset,), (jump,), count in _runs(
                [(int(v[0, 0]),) for v in run], 1))

    def _set_plan(self, groups, windows):
        """Compile the decoding plan; ``groups`` become views of its tables."""
        self.plan = Plan(groups, windows, self.n_tx + 1)
        self.groups = self.plan.groups

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

    def frame_over(self, buf):
        """A frame over ``buf``, ``n_tx + 1`` bits; clears the zero slot."""
        buf[-1] = 0
        return self._frame(buf)

    def _payload_frame(self, bits):
        """A frame holding the payload bits and zero redundancy."""
        bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
        if bits.size != self.payload_bits:
            raise ValueError(
                f"payload must have {self.payload_bits} bits, got {bits.size}"
            )
        buf = np.zeros(self.n_tx + 1, dtype=np.uint8)
        start = 0
        for block in self.info_blocks(buf):
            block[...] = bits[start : start + block.size].reshape(block.shape)
            start += block.size
        return self._frame(buf)

    def info_blocks(self, buf):
        """The information blocks of a uint8 frame buffer, as ``(blocks,
        rows, cols)`` views in payload order."""
        return [np.ndarray(shape, np.uint8, buf, offset, strides)
                for offset, shape, strides in self.info_pieces]

    def extract_payload(self, frame):
        # each view is copied, flat, straight into the payload
        return np.concatenate(self.info_blocks(frame.buf), axis=None)

    def channel_arrays(self, frame):
        """Transmitted arrays in stream order, as mutable views."""
        return self._arrays(frame.buf)
