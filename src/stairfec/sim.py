"""
Monte Carlo BSC simulation harness.

Frames are numbered globally; frame i draws its payload and channel noise
from numpy's SeedSequence(master_seed, spawn_key=(i,)), so results depend
only on (master_seed, frame count), never on how frames were batched over
workers.  The run proceeds in fixed-size rounds and stops at a round
boundary once enough information-bit errors have accumulated (or the frame
budget runs out), which keeps worker counts out of the stopping decision.

A frame is decoded as its error pattern: :func:`run_frames` encodes no
payload and decodes a buffer that holds only the channel noise e, and a
payload bit is wrong where the decoded pattern is nonzero.  This is exact.
The codes are linear, a codeword c has zero keys, and ``engine.decode``
reads a buffer only through its keys, so decoding c + e flips exactly the
slots that decoding e flips, and leaves c + (decoded e).  The payload is
still drawn and discarded, so that the noise takes the same draws from the
frame's generator as when the frame is transmitted, and the counters equal
those of encoding, corrupting (:func:`bsc_corrupt`), decoding and
comparing.  The noise's keys come from its ones (``Plan.error_keys``), a
few dozen slots in the error-floor regime, instead of a dense syndrome
pass over the frame.

The BSC's uniform draws go into a float64 buffer kept per thread and grown
on demand, and are compared with p straight into the frame buffer, so a
frame allocates nothing as large as its n_tx draws (8 bytes per bit: 590,
442 and 663 KB for the benchmark's sc, ff and pff frames).  Whether an
array that large is mmapped afresh or taken from the heap depends on
glibc's dynamic mmap threshold, that is, on what set-up happened to free,
and frame time depended on it.  ``Generator.random(out=...)`` draws the
same numbers as ``Generator.random(n)``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import engine
from .bch import ComponentCode
from .ff import FFCode, search_construction
from .parameters import family_params
from .pff import PFFCode, search_pff_construction
from .staircase import StaircaseCode

__all__ = [
    "build_codec",
    "bsc_corrupt",
    "run_frames",
    "SimReport",
    "run_monte_carlo",
]


def build_codec(family, m, t, s, *, L=2, length=8, window=7, l_max=8, seed=0):
    """Construct a frame codec of a code :func:`family_params` accepts.

    ``length`` counts blocks (sc/ff) or periods (pff); only pff reads
    ``L``.  The arguments bar ``window`` and ``l_max`` are the codec's
    identity (``codec.identity()``), which stream headers record.
    """
    family_params(family, m, t, s)
    if family == "sc":
        codec = StaircaseCode(ComponentCode(m, t, s), length, window=window,
                              l_max=l_max)
    elif family == "ff":
        codec = FFCode(search_construction(m, t, s, seed=seed), length,
                       window=window, l_max=l_max)
    else:
        codec = PFFCode(search_pff_construction(m, t, s, seed=seed), L,
                        length, window=window, l_max=l_max)
    codec.seed = seed
    return codec


# this thread's uniform draws (see the module docstring)
_uniforms = threading.local()


def _bsc_noise(n_tx, p, rng, out=None):
    """Which of ``n_tx`` transmitted bits the BSC flips, each with
    probability p, as a bool array (``out`` if given)."""
    u = getattr(_uniforms, "buf", None)
    if u is None or len(u) < n_tx:
        u = _uniforms.buf = np.empty(n_tx)
    u = rng.random(out=u[:n_tx])
    return np.less(u, p, out=out)


def bsc_corrupt(codec, frame, p, rng):
    """Flip each transmitted bit independently with probability p."""
    noise = _bsc_noise(codec.n_tx, p, rng)
    frame.buf[:-1] ^= noise
    return int(np.count_nonzero(noise))


def _frame_rng(master_seed, index):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    )


def run_frames(codec, p, master_seed, indices):
    """Simulate the given frame indices; returns raw error counters."""
    plan = codec.plan
    bit_errors = block_errors = 0
    for i in indices:
        rng = _frame_rng(master_seed, int(i))
        # the frame's payload; only its place in the random stream matters
        rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
        buf = np.zeros(codec.n_tx + 1, dtype=np.uint8)
        # nonzero of a bool array is about 10x faster than of a uint8 one
        noise = _bsc_noise(codec.n_tx, p, rng, buf[:-1].view(np.bool_))
        engine.decode(buf, plan, codec.l_max,
                      keys=plan.error_keys(np.flatnonzero(noise)))
        if np.count_nonzero(buf):  # most error-floor frames decode to zero
            per_block = np.concatenate([block.sum(axis=(1, 2), dtype=np.int64)
                                        for block in codec.info_blocks(buf)])
            bit_errors += int(per_block.sum())
            block_errors += int(np.count_nonzero(per_block))
    frames = len(indices)
    return (frames, frames * codec.payload_bits, bit_errors,
            frames * codec.info_starts.size, block_errors)


_WORKER_CODEC = None


def _init_worker(codec_factory):
    global _WORKER_CODEC
    _WORKER_CODEC = codec_factory()


def _worker_task(p, master_seed, indices):
    return run_frames(_WORKER_CODEC, p, master_seed, indices)


def _ci95(errors, total):
    if total == 0:
        return 0.0
    phat = errors / total
    return 1.96 * math.sqrt(max(phat * (1 - phat), 0.0) / total)


@dataclass
class SimReport:
    family: str
    p: float
    master_seed: int
    frames: int
    info_bits: int
    bit_errors: int
    blocks: int
    block_errors: int
    workers: int
    elapsed_s: float

    @property
    def ber(self):
        return self.bit_errors / self.info_bits if self.info_bits else 0.0

    @property
    def bker(self):
        return self.block_errors / self.blocks if self.blocks else 0.0

    @property
    def ber_ci95(self):
        return _ci95(self.bit_errors, self.info_bits)

    @property
    def bker_ci95(self):
        return _ci95(self.block_errors, self.blocks)

    def as_dict(self):
        return {
            "family": self.family,
            "p": self.p,
            "master_seed": self.master_seed,
            "frames": self.frames,
            "info_bits": self.info_bits,
            "bit_errors": self.bit_errors,
            "blocks": self.blocks,
            "block_errors": self.block_errors,
            "ber": self.ber,
            "ber_ci95": self.ber_ci95,
            "bker": self.bker,
            "bker_ci95": self.bker_ci95,
            "workers": self.workers,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def run_monte_carlo(codec_factory, p, *, master_seed=0, min_bit_errors=100,
                    max_frames=10000, batch_frames=16, workers=1):
    """Fixed-round Monte Carlo over a BSC with crossover p.

    ``codec_factory`` is a codec or a zero-argument callable that builds
    one.  With workers > 1 each worker rebuilds the codec through
    :func:`build_codec` from its identity, so it must be one that
    build_codec made.  The counters after any round are identical for
    every worker count.  ValueError if ``batch_frames`` or
    ``min_bit_errors`` is below 1, since no frame would run.
    """
    if batch_frames < 1:
        raise ValueError(f"batch_frames must be at least 1, got {batch_frames}")
    if min_bit_errors < 1:
        raise ValueError(
            f"min_bit_errors must be at least 1, got {min_bit_errors}")
    start = time.monotonic()
    codec = codec_factory() if callable(codec_factory) else codec_factory
    totals = [0, 0, 0, 0, 0]
    next_index = 0

    def accumulate(res):
        for i in range(5):
            totals[i] += res[i]

    if workers <= 1:
        while totals[2] < min_bit_errors and totals[0] < max_frames:
            count = min(batch_frames, max_frames - totals[0])
            accumulate(run_frames(
                codec, p, master_seed, range(next_index, next_index + count)
            ))
            next_index += count
    else:
        # imported here: multiprocessing costs every process ~20 ms to import
        from concurrent.futures import ProcessPoolExecutor

        factory = partial(build_codec, **codec.identity(),
                          window=codec.window, l_max=codec.l_max)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(factory,),
        ) as pool:
            while totals[2] < min_bit_errors and totals[0] < max_frames:
                count = min(batch_frames, max_frames - totals[0])
                indices = list(range(next_index, next_index + count))
                next_index += count
                chunks = [indices[w::workers] for w in range(workers)]
                futures = [
                    pool.submit(_worker_task, p, master_seed, chunk)
                    for chunk in chunks if chunk
                ]
                for fut in futures:
                    accumulate(fut.result())

    return SimReport(
        family=codec.family,
        p=p,
        master_seed=master_seed,
        frames=totals[0],
        info_bits=totals[1],
        bit_errors=totals[2],
        blocks=totals[3],
        block_errors=totals[4],
        workers=workers,
        elapsed_s=time.monotonic() - start,
    )
