"""The benchmark's workloads; they drive stairfec only through public entry points.

Each workload is a closed loop with one client that cycles round-robin over
the paper's rate-3/4 table-scale codes at window 7 and l_max 8:

    sc(8,3,63)         8 blocks   55,296 information bits per frame
    ff(8,3,63)         8 blocks   41,472
    pff(8,3,15), L=2   3 periods  62,208

A round is one operation on each code, and round ``r`` of seed ``s`` draws
its inputs from master seed ``(s << 32) | r``.  A workload's ``rounds``
rounds are its counted set: their counters repeat exactly at a fixed seed,
so a change of decoder behaviour shows in a diff even where a rate hides it.

Left out on purpose:

- ff(10,3,183): it takes about 18 s and 1.3 GB to set up and 0.7 s to encode
  a frame, in every run of the benchmark, and exercises the same functions
  as ff(8,3,63).
- Multi-worker Monte Carlo: on two cores wall-clock scaling would measure the
  scheduler, and worker invariance of the counters is already tested.

Residual errors at p = 0.001.  A staircase chain is not terminated: each bit
of its last block lies in one component word only, its row of
[B_(n-1)^T B_n], because no later block's words cover its columns.  When the
channel puts more than t errors into one row of that block, no
bounded-distance decoder can correct the word; for sc(8,3,63) at p = 0.001
that happens in about 3e-4 of frames.  Such errors, confined to those words,
are the code's behaviour, not a decoder fault (see ``heavy_words``).  The ff
and pff chains end in self-protected blocks and have no such words.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from stairfec import framing, sim

# name, build_codec arguments, information bits and information blocks per frame
FAMILIES = (
    ("sc", (8, 3, 63), {"length": 8}, 55296, 8),
    ("ff", (8, 3, 63), {"length": 8}, 41472, 8),
    ("pff", (8, 3, 15), {"L": 2, "length": 3}, 62208, 9),
)
WINDOW = 7
L_MAX = 8
# run_monte_carlo stops on min_bit_errors or max_frames; only the latter may
# end a round, so every round is exactly one frame.
UNREACHABLE_BIT_ERRORS = 1 << 62

MC_COUNTERS = ("frames", "info_bits", "bit_errors", "blocks", "block_errors")
STREAM_COUNTERS = ("requests", "info_bits", "bit_errors", "request_errors")


@dataclass(frozen=True)
class Workload:
    name: str
    p: float  # BSC crossover probability
    stream: bool  # False: Monte Carlo frames; True: stream decode requests
    # any residual error outside the words of ``heavy_words`` is a decoder fault
    error_free: bool
    # Distinct inputs per code.  A run repeats them until its time is up and
    # times every repeat; more inputs make a code's latency depend less on
    # the seed.  The first pass must stay short: about 4 s (waterfall), 2 s
    # (floor) and 1.5 s (stream, where construction search, the same for
    # every input, takes most of a request) on a 2-vCPU Xeon VM.
    rounds: int

    @property
    def counter_names(self):
        return STREAM_COUNTERS if self.stream else MC_COUNTERS


WORKLOADS = {
    w.name: w
    for w in (
        Workload("waterfall", 0.016, False, False, 18),
        Workload("floor_regime", 0.001, False, True, 36),
        Workload("stream_decode", 0.001, True, True, 2),
    )
}


def build_codecs():
    """Construct the three codecs; everything set-up does besides imports."""
    codecs = []
    for name, args, kwargs, info_bits, _ in FAMILIES:
        codec = sim.build_codec(name, *args, window=WINDOW, l_max=L_MAX, **kwargs)
        if codec.payload_bits != info_bits:
            raise RuntimeError(
                f"{name} frame carries {codec.payload_bits} information bits, "
                f"expected {info_bits}"
            )
        codecs.append(codec)
    return codecs


def master_seed(seed, rnd):
    return (seed << 32) | rnd


def heavy_words(codec, sent, received):
    """Final component words the channel hit beyond the code's reach.

    ``sent`` and ``received`` are the frame's last transmitted block before
    and after the channel.  For a staircase frame these are the rows ``i``
    of that block holding more than t channel errors; component word ``i``
    (row i of the last block and column i of the one before it) then cannot
    be decoded, since the last block has no other word to help.  Other
    families have none.
    """
    if codec.family != "sc":
        return frozenset()
    hits = np.count_nonzero(sent != received, axis=1)
    return frozenset(np.flatnonzero(hits > codec.code.t).tolist())


def transmit(codec, payload, p, rng):
    """Encode ``payload`` and pass it through the BSC, as sim.run_frames does.

    Returns the received frame and its ``heavy_words``.
    """
    frame = codec.encode_payload(payload)
    sent = codec.channel_arrays(frame)[-1].copy()
    sim.bsc_corrupt(codec, frame, p, rng)
    return frame, heavy_words(codec, sent, codec.channel_arrays(frame)[-1])


def unexplained_errors(codec, payload, decoded, heavy):
    """Payload bits decoded wrongly outside the component words in ``heavy``."""
    wrong = np.flatnonzero(decoded != payload)
    if not heavy:
        return int(wrong.size)
    # sc payload order: blocks in turn, each row by row over its info columns
    per_block = codec.M * codec.info_cols
    block, cell = np.divmod(wrong - (payload.size - 2 * per_block), per_block)
    row, col = np.divmod(cell, codec.info_cols)
    heavy = np.fromiter(heavy, dtype=np.int64)
    covered = (((block == 1) & np.isin(row, heavy))
               | ((block == 0) & np.isin(col, heavy)))
    return int(np.count_nonzero(~covered))


def prepare(workload, codec, family, seed, rnd):
    """The untimed input of one operation.

    Monte Carlo: the master seed of its single frame.  Stream: the client
    encodes a seeded payload, applies BSC noise and serialises the frame;
    the request is the (payload, stream bytes, heavy words) triple.
    """
    if not workload.stream:
        return master_seed(seed, rnd)
    rng = np.random.default_rng(
        np.random.SeedSequence(master_seed(seed, rnd), spawn_key=(family,))
    )
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    frame, heavy = transmit(codec, payload, workload.p, rng)
    return payload, framing.write_stream(codec, frame), heavy


def decode_request(body):
    dec_codec, frame = framing.read_stream(body)
    dec_codec.decode_frame(frame)
    return dec_codec.extract_payload(frame)


def execute(workload, codec, op_input):
    """Run one operation; returns (seconds, counters)."""
    if not workload.stream:
        start = perf_counter()
        rep = sim.run_monte_carlo(
            codec, workload.p, master_seed=op_input,
            min_bit_errors=UNREACHABLE_BIT_ERRORS, max_frames=1,
            batch_frames=1, workers=1,
        )
        elapsed = perf_counter() - start
        return elapsed, (rep.frames, rep.info_bits, rep.bit_errors,
                         rep.blocks, rep.block_errors)
    payload, body, _ = op_input
    start = perf_counter()
    decoded = decode_request(body)
    elapsed = perf_counter() - start
    if decoded.shape != payload.shape:
        raise RuntimeError(
            f"decoded {decoded.size} payload bits, expected {payload.size}"
        )
    errors = int(np.count_nonzero(decoded != payload))
    return elapsed, (1, payload.size, errors, int(errors > 0))


def check_residual(workload, codec, op_input, counters):
    """Problems with one operation's residual errors, as text.

    In an ``error_free`` workload every residual error must lie in a
    component word of ``heavy_words``.  The operation is run again, untimed,
    to locate its errors: a stream request from its own input, a Monte Carlo
    frame from its master seed, which seeds frame 0 as sim.run_frames does.
    """
    errors = counters[2]
    if not (workload.error_free and errors):
        return []
    if workload.stream:
        payload, body, heavy = op_input
        decoded = decode_request(body)
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=op_input, spawn_key=(0,))
        )
        payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
        frame, heavy = transmit(codec, payload, workload.p, rng)
        codec.decode_frame(frame)
        decoded = codec.extract_payload(frame)
    again = int(np.count_nonzero(decoded != payload))
    if again != errors:
        return [f"{codec.family}: {errors} residual bit errors, {again} when "
                f"the operation was run again"]
    unexplained = unexplained_errors(codec, payload, decoded, heavy)
    if unexplained:
        return [f"{codec.family}: {unexplained} of {errors} residual bit errors "
                f"at p = {workload.p} lie outside the final words the channel "
                f"hit with more than t errors ({sorted(heavy)})"]
    print(f"{codec.family}: {errors} residual bit errors, all in final component "
          f"words {sorted(heavy)} that the channel hit with more than t errors")
    return []


def check_counters(workload, family, counters):
    """Problems with one operation's counters, as text (empty when sound)."""
    name, _, _, info_bits, blocks = FAMILIES[family]
    if workload.stream:
        return []
    frames, bits, bit_errors, n_blocks, block_errors = counters
    problems = []
    if (frames, bits, n_blocks) != (1, info_bits, blocks):
        problems.append(
            f"{name}: frame counted {frames} frames, {bits} bits, {n_blocks} "
            f"blocks; expected 1, {info_bits}, {blocks}"
        )
    if not (0 <= bit_errors <= bits and 0 <= block_errors <= n_blocks
            and (bit_errors > 0) == (block_errors > 0)):
        problems.append(
            f"{name}: inconsistent errors {bit_errors} bits / {block_errors} blocks"
        )
    return problems


def check_totals(workload, totals):
    """Run-level check on the summed Monte Carlo counters of each family.

    The decoder must leave fewer errors than the channel made.
    """
    if workload.stream:
        return []
    return [
        f"{name}: post-decoding BER {bit_errors / bits} is not below p = {workload.p}"
        for (name, *_), (frames, bits, bit_errors, _, _) in zip(FAMILIES, totals)
        if frames and bit_errors >= workload.p * bits
    ]
