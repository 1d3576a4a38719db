"""``Plan.syndromes``, which reads strided views of the frame, against the
word-table gather in ``reference``, and its compiled pieces against the
slot tables they stand for."""

import numpy as np
import pytest

import reference
from stairfec import engine, ff, gf2, sim

# the benchmark's codes, two-word keys, small and large codes of every
# family, and pff's S[i,i], which one word lists twice
CODECS = [
    ("sc", 8, 3, 63, dict(length=8)),
    ("ff", 8, 3, 63, dict(length=8)),
    ("pff", 8, 3, 15, dict(L=2, length=3)),
    ("sc", 10, 7, 823, dict(length=3)),
    ("sc", 5, 2, 1, dict(length=6)),
    ("ff", 7, 2, 27, dict(length=6)),
    ("ff", 9, 3, 187, dict(length=4)),
    ("pff", 7, 2, 41, dict(L=1, length=4)),
    ("pff", 7, 2, 41, dict(L=3, length=2)),
    ("sc", 10, 3, 183, dict(length=2)),
]


def twice_listed(plan):
    """The slots that some word lists at two of its positions."""
    zero = plan.n_slots - 1
    twice = []
    for _, words in plan.groups:
        ordered = np.sort(words, axis=1)
        twice.append(ordered[:, 1:][ordered[:, 1:] == ordered[:, :-1]])
    twice = np.concatenate(twice)
    return np.unique(twice[twice != zero])


def check_dense_buffers(codec):
    plan = codec.plan
    rng = np.random.default_rng(3)
    twice = twice_listed(plan)
    # pff's S[i,i] sits twice in row word i of S; sc and ff list no slot twice
    assert bool(twice.size) == (codec.family == "pff")
    for density in (0.5, 0.5, 0.05, 0.95):
        buf = (rng.random(codec.n_tx + 1) < density).astype(np.uint8)
        buf[twice] = 1
        buf[-1] = 0  # the zero slot
        keys = plan.syndromes(buf)
        assert keys.shape == (plan.n_words + 1, plan.width)
        assert (keys == reference.syndromes_by_gather(plan, buf)).all()
    assert not plan.syndromes(np.zeros(codec.n_tx + 1, np.uint8)).any()


@pytest.mark.parametrize("case", CODECS)
def test_syndromes_equal_the_gather_on_dense_buffers(case):
    family, m, t, s, kwargs = case
    check_dense_buffers(sim.build_codec(family, m, t, s, **kwargs))


def test_largest_ff_code_syndromes_equal_the_gather():
    """ff(10,3,183), the paper's rate-13/14 code, whose mirror columns are
    gathered beside its strided pieces."""
    try:
        check_dense_buffers(sim.build_codec("ff", 10, 3, 183, length=2))
    finally:
        ff.search_construction.cache_clear()


def summed(word, slot, rows, zero):
    """(word, slot) pairs in order and the sum of ``rows`` over each; the
    zero slot, which reads 0, is left out."""
    keep = slot != zero
    key = (word * (zero + 1) + slot)[keep]
    rows = rows[keep]
    order = np.argsort(key, kind="stable")
    key, rows = key[order], rows[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return key[starts], np.add.reduceat(rows, starts, axis=0)


def rebuilt(plan, code, first, pieces):
    """The (word, slot) entries of one code's pieces, each with the summed
    check rows its matrices give it, read through the pieces' own views of
    a buffer that holds every slot's number.  Slice k of a piece ``(shape,
    (a, d), read, matrix)`` holds words a + k*d onwards."""
    slots_buf = np.arange(plan.n_slots, dtype=np.float32)  # exact < 2**24
    word, slot, rows = [], [], []
    for shape, (a, d), read, matrix in pieces:
        count, n, span = shape
        slots = engine._read(slots_buf, read, shape)
        assert slots.shape == shape and len(matrix) == span
        # each piece reads some slot into some syndrome
        assert matrix.any(axis=1).any()
        # the runs of a piece are disjoint word ranges
        assert count == 1 or d >= n
        words = (first + a + d * np.arange(count)[:, None, None]
                 + np.arange(n)[:, None])
        word.append(np.broadcast_to(words, slots.shape).ravel())
        slot.append(slots.astype(np.intp).ravel())
        rows.append(np.broadcast_to(matrix, slots.shape + matrix.shape[1:])
                    .reshape(-1, matrix.shape[1]))
    rows = np.concatenate(rows)
    nonzero = rows.any(axis=1)  # a missing column's row reads nothing
    return summed(np.concatenate(word)[nonzero],
                  np.concatenate(slot)[nonzero], rows[nonzero],
                  plan.n_slots - 1)


@pytest.mark.parametrize("case", CODECS[:-1])
def test_pieces_cover_every_slot_of_every_word_once(case):
    """Every word holds, through the pieces, exactly the slots of its row of
    ``groups``, each with the check rows of the positions that hold it (a
    position's check row, its unit error's odd syndromes, differs from every
    other position's, so this is the slot table)."""
    family, m, t, s, kwargs = case
    codec = sim.build_codec(family, m, t, s, **kwargs)
    plan = codec.plan
    by_code = {id(code): (code, table, first)
               for code, table, first in plan.stacks}
    for code, first, rows, pieces in plan.pieces:
        _, table, start = by_code[id(code)]
        assert start == first and rows == len(table)
        words = table[:, : code.n]
        bits = code._check_bits
        expect = summed(
            np.repeat(np.arange(first, first + rows), code.n), words.ravel(),
            np.tile(bits, (rows, 1)), plan.n_slots - 1)
        got = rebuilt(plan, code, first, pieces)
        assert np.array_equal(got[0], expect[0])
        assert np.array_equal(got[1], expect[1])
        assert len(np.unique(bits, axis=0)) == code.n


def test_pieces_of_the_benchmark_codes():
    """sc and pff read every word through strided views; ff gathers its
    wrapped mirror columns.  The pieces of one view shape and check rows
    merge across groups: sc reads its 8 groups in 2 pieces, ff its 4 pairs'
    mirror columns in one (4, 72, 48) gather.  Only pff's permuted clusters
    copy their check rows, one copy for its three periods, and a codec
    keeps nothing else for its pieces."""
    counts = {}
    for family, m, t, s, kwargs in CODECS[:3]:
        codec = sim.build_codec(family, m, t, s, **kwargs)
        plan = codec.plan
        before = gf2.nbytes(codec)
        pieces = [piece for *_, pieces in plan.pieces for piece in pieces]
        gathers = [shape for shape, _, read, _ in pieces
                   if isinstance(read, np.ndarray)]
        copied = {id(matrix): matrix.nbytes for *_, matrix in pieces
                  if matrix.base is None}
        assert all(not matrix.flags.writeable for *_, matrix in pieces)
        assert all(not read.flags.writeable for _, _, read, _ in pieces
                   if isinstance(read, np.ndarray))
        # the rest are views
        assert gf2.nbytes(codec) == before + sum(copied.values())
        counts[family] = (len(pieces) - len(gathers), gathers,
                          sum(copied.values()))
    assert counts == {"sc": (2, [], 0), "ff": (4, [(4, 72, 48)], 0),
                      "pff": (6, [], 9216)}


def test_monte_carlo_compiles_no_pieces():
    """Monte Carlo keys come from the noise's ones (``Plan.error_keys``),
    so a plan that only simulates never compiles the pieces."""
    codec = sim.build_codec("ff", 7, 2, 27, length=6)
    sim.run_frames(codec, 0.02, 5, range(2))
    assert "pieces" not in vars(codec.plan)
    codec.decode_frame(codec.frame_from_bits(np.zeros(codec.n_tx, np.uint8)))
    assert "pieces" in vars(codec.plan)
