import numpy as np
import pytest

import reference
from stairfec.bch import ComponentCode
from stairfec.staircase import StaircaseCode


@pytest.fixture(scope="module")
def toy():
    code = ComponentCode(4, 1, 1)   # n=14, M=7, r=4
    return StaircaseCode(code, 6, window=4, l_max=4)


def test_geometry(toy):
    assert toy.M == 7
    assert toy.info_cols == 3
    assert toy.payload_bits == 6 * 7 * 3


def test_odd_n_rejected():
    code = ComponentCode(4, 1, 0)   # n=15
    with pytest.raises(ValueError):
        StaircaseCode(code, 4)


def test_encode_rows_are_codewords(toy):
    rng = np.random.default_rng(0)
    payload = rng.integers(0, 2, toy.payload_bits, dtype=np.uint8)
    frame = toy.encode_payload(payload)
    assert (frame.blocks[0] == 0).all()
    for i in range(1, len(frame.blocks)):
        words = np.hstack([frame.blocks[i - 1].T, frame.blocks[i]])
        for row in words:
            assert not any(reference.syndromes(toy.code, row))


def test_noiseless_round_trip(toy):
    rng = np.random.default_rng(1)
    payload = rng.integers(0, 2, toy.payload_bits, dtype=np.uint8)
    frame = toy.encode_payload(payload)
    toy.decode_frame(frame)
    assert (toy.extract_payload(frame) == payload).all()


def test_corrects_scattered_errors(toy):
    rng = np.random.default_rng(2)
    for trial in range(10):
        payload = rng.integers(0, 2, toy.payload_bits, dtype=np.uint8)
        frame = toy.encode_payload(payload)
        # one error per block: always within the per-word budget
        for b in frame.blocks[1:]:
            b[rng.integers(0, toy.M), rng.integers(0, toy.M)] ^= 1
        toy.decode_frame(frame)
        assert (toy.extract_payload(frame) == payload).all()


def test_payload_size_validated(toy):
    with pytest.raises(ValueError):
        toy.encode_payload(np.zeros(5, dtype=np.uint8))


def test_channel_and_info_views(toy):
    payload = np.zeros(toy.payload_bits, dtype=np.uint8)
    frame = toy.encode_payload(payload)
    arrays = toy.channel_arrays(frame)
    assert len(arrays) == toy.n_blocks
    assert all(a.shape == (toy.M, toy.M) for a in arrays)
    assert toy.info_starts.tolist() == [
        i * toy.M * toy.info_cols for i in range(toy.n_blocks)
    ]
    # views alias frame storage
    arrays[0][0, 0] ^= 1
    assert frame.blocks[1][0, 0] == 1
    assert toy.extract_payload(frame)[0] == 1


def test_frame_container(toy):
    frame = toy.encode_payload(np.zeros(toy.payload_bits, dtype=np.uint8))
    assert frame.n_blocks == toy.n_blocks
    assert frame.buf.size == toy.n_tx + 1
    # B_0 is a read-only view of the zero slot
    assert not frame.blocks[0].flags.writeable
    assert np.shares_memory(frame.blocks[0], frame.buf[-1:])
