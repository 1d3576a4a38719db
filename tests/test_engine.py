import numpy as np
import pytest

import reference
from stairfec import engine, sim
from stairfec.bch import ComponentCode
from stairfec.staircase import StaircaseCode


@pytest.mark.parametrize("family,s,kwargs", [
    ("sc", 63, dict(length=1)),
    ("sc", 63, dict(length=8)),
    ("ff", 63, dict(length=2)),
    ("ff", 63, dict(length=8)),
    ("pff", 15, dict(L=1, length=3)),
    ("pff", 15, dict(L=2, length=3)),
    ("pff", 15, dict(L=3, length=2)),
])
def test_payload_views_equal_the_gather(family, s, kwargs):
    """The payload read through the information blocks' strided views
    equals the gather of its slots on random buffers, and the views' block
    sums, which count Monte Carlo's residual errors, equal the gathered
    blocks' sums; the encoder writes each payload bit to its slot."""
    codec = sim.build_codec(family, 8, 3, s, **kwargs)
    rng = np.random.default_rng(5)
    for _ in range(3):
        # byte values, not bits, so that any misplaced read shows
        frame = codec.frame_from_bits(rng.integers(0, 256, codec.n_tx))
        expect = reference.payload_by_gather(codec, frame.buf)
        assert expect.size == codec.payload_bits
        payload = codec.extract_payload(frame)
        assert payload.shape == expect.shape and (payload == expect).all()
        sums = np.concatenate([block.sum(axis=(1, 2), dtype=np.int64)
                               for block in codec.info_blocks(frame.buf)])
        assert (sums == np.add.reduceat(expect, codec.info_starts,
                                        dtype=np.int64)).all()
    bits = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    frame = codec.encode_payload(bits)
    assert (reference.payload_by_gather(codec, frame.buf) == bits).all()


def test_pad_flips_are_vetoed():
    code = ComponentCode(5, 1, 2)   # n=29
    pad = 4
    # word positions 0..pad-1 read the zero slot, the rest buffer slots 0..24
    words = np.concatenate([np.full(pad, code.n - pad),
                            np.arange(code.n - pad)])[None, :]
    plan = engine.Plan([(code, words)], [[0]], code.n - pad + 1)

    msg = np.zeros(code.k, dtype=np.uint8)
    msg[10] = 1
    word = code.systematic_encode(msg)
    buf = np.append(word[pad:], 0).astype(np.uint8)
    buf[3] ^= 1
    engine.decode(buf, plan, 2)
    assert (buf[:-1] == word[pad:]).all()

    # a codeword with a one at position 0 reads as a single error there,
    # in the pad: the correction is refused and nothing changes
    msg = np.zeros(code.k, dtype=np.uint8)
    msg[0] = 1
    word = code.systematic_encode(msg)
    assert code.decode(np.concatenate([[0], word[1:]])).flips == (0,)
    buf = np.append(word[pad:], 0).astype(np.uint8)
    before = buf.copy()
    engine.decode(buf, plan, 2)
    assert (buf == before).all()


def test_frozen_block_flips_are_vetoed():
    code = ComponentCode(4, 1, 1)   # n=14, M=7, t=1
    sc = StaircaseCode(code, 1, window=2, l_max=2)
    clean = sc.encode_payload(np.zeros(sc.payload_bits, dtype=np.uint8))
    # an error in B_1 is corrected
    frame = sc.encode_payload(np.zeros(sc.payload_bits, dtype=np.uint8))
    frame.blocks[1][2, 3] ^= 1
    sc.decode_frame(frame)
    assert (frame.buf == clean.buf).all()
    # row 2 of B_1, the last block, set to the tail of a codeword with a
    # one in B_0's column 2: the word reads as one error in B_0, which
    # must stay zero
    msg = np.zeros(code.k, dtype=np.uint8)
    msg[5] = 1
    word = code.systematic_encode(msg)
    frame.blocks[1][2] = word[sc.M :]
    before = frame.buf.copy()
    sc.decode_frame(frame)
    assert (frame.buf == before).all()
    assert frame.buf[-1] == 0


def test_batch_matches_one_at_a_time_loop():
    """One group whose words overlap: the batched XOR-at must leave what a
    word-by-word loop leaves, after the same number of sweeps."""
    code = ComponentCode(5, 2, 4)   # n=27, t=2
    n = code.n
    rng = np.random.default_rng(12)

    def codeword(fixed={}):
        """A random codeword with the given information bits."""
        msg = rng.integers(0, 2, code.k, dtype=np.uint8)
        for pos, bit in fixed.items():
            msg[pos] = bit
        return code.systematic_encode(msg)

    # five words over disjoint slots, then three overlaps
    a, b, c, d, e = np.arange(5 * n).reshape(5, n)
    zero = 5 * n
    b[3] = a[5]    # a and b share a slot
    c[1] = c[0]    # c lists a slot twice
    d[:2] = zero   # d has two pad positions

    buf = np.zeros(zero + 1, dtype=np.uint8)
    # a: one error, on the shared slot
    wa = codeword()
    buf[a] = wa
    buf[a[5]] ^= 1
    # b: its codeword disagrees with the shared slot's received bit, so a
    # and b both flip it
    wb = codeword({3: wa[5]})
    own = np.arange(n) != 3
    buf[b[own]] = wb[own]
    # c: zeros at positions 0 and 1 read a 1 from the doubled slot, two
    # errors on one slot
    wc = codeword({0: 0, 1: 0})
    buf[c[1:]] = wc[1:]
    buf[c[0]] = 1
    # d: a one at pad position 0 reads as an error there, plus one real
    # error, so both of d's flips are vetoed
    wd = codeword({0: 1, 1: 0})
    buf[d[2:]] = wd[2:]
    buf[d[10]] ^= 1
    # e: an ordinary word with two errors
    we = codeword()
    buf[e] = we
    buf[e[[4, 20]]] ^= 1
    words = np.array([a, b, c, d, e])

    # the premises: every word decodes; the engine refuses d for its pad flip
    snap = buf[words]
    flips = [reference.bdd(code, w) for w in snap]
    assert [ok for ok, _ in flips] == [True] * 5
    assert flips[0][1] == [5] and flips[1][1] == [3]
    assert flips[2][1] == [0, 1] and flips[3][1] == [0, 10]

    schedule = [[(code, words)]]
    expect = buf.copy()
    expect_sweeps = reference.decode_one_at_a_time(expect, schedule, 4)
    sweeps, _ = engine.decode(buf, engine.Plan(schedule[0], [[0]], buf.size),
                              4)
    assert (buf == expect).all()
    assert sweeps == expect_sweeps
    # the shared and the doubled slot flip twice per sweep, so every sweep
    # changes something and the loop runs to l_max
    assert sweeps == 4
    assert buf[a[5]] == wa[5] ^ 1 and buf[c[0]] == 1
    assert buf[d[10]] == wd[10] ^ 1
    assert (buf[e] == we).all()
