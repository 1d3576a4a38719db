"""
Golden values pinned from the per-family decoders this package used to have.

Every value here was recorded with the hand-written sc/ff/pff decoders, before
they were replaced by the shared index-map engine.  The tests reach the codecs
only through public entry points (build_codec, run_frames, bsc_corrupt,
write_stream, gen_stall, apply_stall), so they pin behaviour, not layout:

- Monte Carlo counters at a waterfall crossover on small codes;
- one frame of each table-scale code at p = 0.016;
- the SHA-256 of the stream bytes of an encoded, a noisy and a decoded frame;
- certified stall patterns, as sets of stream-bit offsets.

The benchmark-scale counters at the end were recorded later, with the
syndrome-domain engine and its sorted syndrome table, before the table
became direct-indexed: they pin the benchmark's own codes and rounds.
"""

import hashlib

import numpy as np
import pytest

from stairfec.floors import apply_stall, gen_stall
from stairfec.framing import HEADER, write_stream
from stairfec.sim import bsc_corrupt, build_codec, run_frames

SMALL = {
    "sc": ("sc", 5, 2, 1, dict(length=6, window=4, l_max=6), 0.06),
    "ff": ("ff", 7, 2, 27, dict(length=6, window=5, l_max=6), 0.02),
    "pff1": ("pff", 7, 2, 41, dict(L=1, length=4, window=6, l_max=6), 0.03),
    "pff2": ("pff", 7, 2, 41, dict(L=2, length=3, window=6, l_max=6), 0.03),
}
TABLE = {
    "sc": ("sc", 8, 3, 63, dict(length=8)),
    "ff": ("ff", 8, 3, 63, dict(length=8)),
    "pff1": ("pff", 8, 3, 15, dict(L=1, length=3)),
    "pff2": ("pff", 8, 3, 15, dict(L=2, length=3)),
}

# run_frames(codec, p, master_seed=5, range(12))
SMALL_COUNTERS = {
    "sc": (12, 5400, 14, 72, 7),
    "ff": (12, 93312, 109, 72, 18),
    "pff1": (12, 41760, 50, 96, 8),
    "pff2": (12, 46980, 71, 108, 13),
}
# payload from default_rng(11): encoded, after bsc_corrupt, after decode_frame
SMALL_STREAMS = {
    "sc": ("626cf86956ff14f9e8e0eef0ce1622984c8eca4eec7005209863a3e3624c3be2",
           "4f277c779f225510ec5dc26605b96a0cf1a5656b910a0abbb61d55c61d82712e",
           "626cf86956ff14f9e8e0eef0ce1622984c8eca4eec7005209863a3e3624c3be2"),
    "ff": ("8f1f2153c20fb21247fcf74c48d25573e70b527c48c8b972a29218fbde313e7b",
           "c0a78db6d0fd52f5df94f5c5e43cf55989e7b24e9bd2ea5f283299f6eb4794aa",
           "64d59f5092f51f03089c715a47c1f5f90d1091ab9981690ce3d3ed714aba3caa"),
    "pff1": ("e8ecb22ee6b3222d47ded4ef890ef7e45630ffff1bdb17206959351e9c54ed1b",
             "ec8ebdf5e8e647beb013ddab4b606753b0b71ed73053ce00bb2787b48768e1ff",
             "bddc9451a77b959a47e25bc9b1951be0a13fcacd4618114234425bd5ba017a4e"),
    "pff2": ("e05326bc447ceb655370a4661308cad6e389ab12ffacef51df69673ae1de64b6",
             "28dd2c572f5c4f6f9b7338eecaefb2b2122c6604d6463c4636a68d74e39512c2",
             "68d466c3685cfb6947ce86b2c0179689e3466a28db97c4edd922bfce8d505628"),
}
# gen_stall(codec, seed=1), as the stream bits the pattern sets in a zero frame
SMALL_STALLS = {
    "sc": {271, 272, 273, 376, 377, 378, 421, 422, 423},
    "ff": {3120, 3448, 8808, 8956, 9132, 9280},
    "pff1": {2737, 2741, 2744, 2853, 2857, 2860, 3201, 3205, 3208},
    "pff2": {4419, 4423, 4426, 4535, 4539, 4542, 4883, 4887, 4890},
}
# run_frames(codec, 0.016, master_seed=3, [0]), then a frame from
# default_rng(12) after bsc_corrupt at 0.016 and decode_frame
TABLE_FRAMES = {
    "sc": ((1, 55296, 27, 8, 1),
           "65cc3e90ab2a313c591091f9d1cbe05d9bd58e66d13081ed669c4415f4dee4cf"),
    "ff": ((1, 41472, 14, 8, 1),
           "f941b5ae4bdd36baf1a07eabe96be7b3d791309ba35861914253003b8d173bce"),
    "pff1": ((1, 41472, 32, 6, 1),
             "61329e313f18ce79e0a37a18276b2e4149ba8fa346cd2a5fcb902b4b62a1dc04"),
    "pff2": ((1, 62208, 55, 9, 3),
             "9163154f9197a50fe7cdab7dfc2ad2a8178ceb51db8b95ba635b522def375ff5"),
}


def _sha(codec, frame):
    return hashlib.sha256(write_stream(codec, frame)).hexdigest()


@pytest.mark.parametrize("key", list(SMALL))
def test_small_code_counters_and_streams(key):
    family, m, t, s, kwargs, p = SMALL[key]
    codec = build_codec(family, m, t, s, **kwargs)
    assert run_frames(codec, p, 5, range(12)) == SMALL_COUNTERS[key]

    rng = np.random.default_rng(11)
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    frame = codec.encode_payload(payload)
    encoded, noisy, decoded = SMALL_STREAMS[key]
    assert _sha(codec, frame) == encoded
    bsc_corrupt(codec, frame, p, rng)
    assert _sha(codec, frame) == noisy
    codec.decode_frame(frame)
    assert _sha(codec, frame) == decoded


@pytest.mark.parametrize("key", list(SMALL))
def test_stall_pattern_offsets(key):
    family, m, t, s, kwargs, _ = SMALL[key]
    codec = build_codec(family, m, t, s, **kwargs)
    pattern = gen_stall(codec, seed=1)
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    apply_stall(codec, frame, pattern)
    body = np.frombuffer(write_stream(codec, frame)[HEADER.size :],
                         dtype=np.uint8)
    assert set(np.flatnonzero(np.unpackbits(body)).tolist()) == SMALL_STALLS[key]


@pytest.mark.parametrize("key", list(TABLE))
def test_table_scale_frame(key):
    family, m, t, s, kwargs = TABLE[key]
    codec = build_codec(family, m, t, s, **kwargs)
    counters, decoded = TABLE_FRAMES[key]
    assert run_frames(codec, 0.016, 3, [0]) == counters

    rng = np.random.default_rng(12)
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    frame = codec.encode_payload(payload)
    bsc_corrupt(codec, frame, 0.016, rng)
    codec.decode_frame(frame)
    assert _sha(codec, frame) == decoded


# The benchmark's codes and rounds: sum over r of run_frames(codec, p,
# (7 << 32) | r, [0]), 18 rounds at p = 0.016 and 36 at p = 0.001, as the
# benchmark's waterfall and floor_regime workloads count them at seed 7
BENCHMARK = {
    "sc": ("sc", 8, 3, 63, dict(length=8)),
    "ff": ("ff", 8, 3, 63, dict(length=8)),
    "pff2": ("pff", 8, 3, 15, dict(L=2, length=3)),
}
BENCHMARK_COUNTERS = {
    ("sc", 0.016): (18, 995328, 524, 144, 27),
    ("sc", 0.001): (36, 1990656, 0, 288, 0),
    ("ff", 0.016): (18, 746496, 260, 144, 20),
    ("ff", 0.001): (36, 1492992, 0, 288, 0),
    ("pff2", 0.016): (18, 1119744, 660, 162, 29),
    ("pff2", 0.001): (36, 2239488, 0, 324, 0),
}


@pytest.mark.parametrize("key, p", list(BENCHMARK_COUNTERS))
def test_benchmark_scale_counters(key, p):
    family, m, t, s, kwargs = BENCHMARK[key]
    codec = build_codec(family, m, t, s, **kwargs)
    rounds = 18 if p > 0.01 else 36
    totals = [0] * 5
    for r in range(rounds):
        counters = run_frames(codec, p, (7 << 32) | r, [0])
        totals = [a + b for a, b in zip(totals, counters)]
    assert tuple(totals) == BENCHMARK_COUNTERS[key, p]
