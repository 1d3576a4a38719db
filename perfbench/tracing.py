"""Span tracer that wraps stairfec's public functions from outside the package.

``Tracer.install`` replaces every binding of each traced function (module
globals in every loaded ``stairfec`` module, or the class attribute for a
method) with a wrapper that records a span ``[name, start, end, parent]``
in memory; ``uninstall`` puts the originals back.  Self time is derived from
the spans afterwards: a span's duration minus the durations of its direct
children.  Calls are single-threaded, so children never overlap.

``galois`` is deliberately not traced: it is called per symbol inside
``bch.decode`` and wrapping it would dominate the run; its cost shows in
``bch.decode.self_s``.  ``parameters``, ``floors`` and ``cli`` are on no
workload's path.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# metric name -> (stairfec module, attribute path inside it)
TRACED = {
    "gf2.invert": ("gf2", "invert"),
    "gf2.mat_mul": ("gf2", "mat_mul"),
    "bch.words_with_errors": ("bch", "ComponentCode.words_with_errors"),
    "bch.decode": ("bch", "ComponentCode.decode"),
    "staircase.encode_payload": ("staircase", "StaircaseCode.encode_payload"),
    "staircase.decode_frame": ("staircase", "StaircaseCode.decode_frame"),
    "ff.search_construction": ("ff", "search_construction"),
    "ff.build_construction": ("ff", "build_construction"),
    "ff.encode_payload": ("ff", "FFCode.encode_payload"),
    "ff.encode_pair": ("ff", "FFCode.encode_pair"),
    "ff.decode_frame": ("ff", "FFCode.decode_frame"),
    "pff.search_pff_construction": ("pff", "search_pff_construction"),
    "pff.build_pff_construction": ("pff", "build_pff_construction"),
    "pff.encode_payload": ("pff", "PFFCode.encode_payload"),
    "pff.encode_sp_pair": ("pff", "PFFCode.encode_sp_pair"),
    "pff.decode_frame": ("pff", "PFFCode.decode_frame"),
    "sim.build_codec": ("sim", "build_codec"),
    "sim.bsc_corrupt": ("sim", "bsc_corrupt"),
    "sim.run_frames": ("sim", "run_frames"),
    "framing.read_stream": ("framing", "read_stream"),
}


def _count_mat_mul(counts, args, result):
    a_shape, b_shape = np.shape(args[0]), np.shape(args[1])
    rows = int(np.prod(a_shape[:-1])) if len(a_shape) > 1 else 1
    cols = int(np.prod(b_shape[1:])) if len(b_shape) > 1 else 1
    inner = b_shape[0] if b_shape else 1
    counts["gf2.mat_mul.macs"] += rows * inner * cols


def _count_words(counts, args, result):
    shape = np.shape(args[1])
    counts["bch.words_with_errors.words"] += shape[0] if len(shape) > 1 else 1
    counts["bch.words_with_errors.flagged"] += int(np.count_nonzero(result))


def _count_decode(counts, args, result):
    counts["bch.decode.ok"] += int(result.ok)
    counts["bch.decode.flips"] += len(result.flips)


# Work counted at the traced boundaries; each repeats exactly at a fixed seed.
COUNTERS = {
    "gf2.mat_mul": _count_mat_mul,
    "bch.words_with_errors": _count_words,
    "bch.decode": _count_decode,
}
COUNT_NAMES = (
    "gf2.mat_mul.macs",
    "bch.words_with_errors.words",
    "bch.words_with_errors.flagged",
    "bch.decode.ok",
    "bch.decode.flips",
)


def _resolve(module_name, path):
    owner = sys.modules[f"stairfec.{module_name}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder over the functions named in ``TRACED``."""

    def __init__(self):
        self.names = list(TRACED)
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = []
        self._bindings = self._find_bindings()
        self._wrappers = {
            name: self._wrap(i, name, self._original(name))
            for i, name in enumerate(self.names)
        }

    @staticmethod
    def _original(name):
        owner, attr = _resolve(*TRACED[name])
        return owner.__dict__[attr]

    def _find_bindings(self):
        """(owner, attribute, metric name, original) for every binding.

        A function imported into several modules (``sim`` imports
        ``search_construction`` from ``ff``) is rebound in each of them.
        """
        originals = {id(self._original(name)): name for name in self.names}
        bindings = []
        for name in self.names:
            owner, attr = _resolve(*TRACED[name])
            if isinstance(owner, type):
                bindings.append((owner, attr, name, owner.__dict__[attr]))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "stairfec" and not mod_name.startswith("stairfec."):
                continue
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is not None:
                    bindings.append((module, attr, name, value))
        return bindings

    def _wrap(self, index, name, fn):
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def install(self):
        for owner, attr, name, _ in self._bindings:
            setattr(owner, attr, self._wrappers[name])

    def uninstall(self):
        for owner, attr, _, original in self._bindings:
            setattr(owner, attr, original)

    def self_times(self):
        """Per-span self time: duration minus direct children's durations."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self):
        """{metric name: (calls, inclusive seconds, self seconds)}."""
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        excl = [0.0] * len(self.names)
        for (index, start, end, _), own in zip(self.spans, self.self_times()):
            calls[index] += 1
            incl[index] += end - start
            excl[index] += own
        return {
            name: (calls[i], incl[i], excl[i]) for i, name in enumerate(self.names)
        }
