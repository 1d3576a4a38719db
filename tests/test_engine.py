import numpy as np

from stairfec import engine
from stairfec.bch import ComponentCode
from stairfec.staircase import StaircaseCode


def test_pad_flips_are_vetoed():
    code = ComponentCode(5, 1, 2)   # n=29
    pad = 4
    # word positions 0..pad-1 read the zero slot, the rest buffer slots 0..24
    words = np.concatenate([np.full(pad, code.n - pad),
                            np.arange(code.n - pad)])[None, :]
    schedule = [[(code, words)]]

    msg = np.zeros(code.k, dtype=np.uint8)
    msg[10] = 1
    word = code.systematic_encode(msg)
    buf = np.append(word[pad:], 0).astype(np.uint8)
    buf[3] ^= 1
    engine.decode(buf, schedule, 2)
    assert (buf[:-1] == word[pad:]).all()

    # a codeword with a one at position 0 reads as a single error there,
    # in the pad: the correction is refused and nothing changes
    msg = np.zeros(code.k, dtype=np.uint8)
    msg[0] = 1
    word = code.systematic_encode(msg)
    assert code.decode(np.concatenate([[0], word[1:]])).flips == (0,)
    buf = np.append(word[pad:], 0).astype(np.uint8)
    before = buf.copy()
    engine.decode(buf, schedule, 2)
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
