#!/usr/bin/env python3
"""stairfec benchmark: Monte Carlo frame time and stream-decode latency.

Run from the repository root:

    python3 perfbench/run.py --workload waterfall --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json records why each was chosen):

    waterfall      Monte Carlo frames at BSC p = 0.016
    floor_regime   Monte Carlo frames at BSC p = 0.001
    stream_decode  write_stream bodies with BSC noise at p = 0.001, decoded by
                   read_stream -> decode_frame -> extract_payload

Each cycles round-robin over sc(8,3,63), ff(8,3,63) and pff(8,3,15) L=2.
Each workload has a counted set of seeded inputs per code.  With
``--trace 0`` the run repeats the counted set for ``--seconds`` (at least
once) and reports end-to-end metrics; with ``--trace 1`` it runs the counted
set once traced and once not, and reports per-layer metrics and the tracing
overhead.  Earlier lines of standard output are for people: machine facts,
the counters of each code, the latency distribution of each code and every
metric with its unit.  The last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The benchmark imports stairfec from ``src/`` beside this directory and exits
with code 2, printing no result, when that source tree is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: one client on a small machine; extra BLAS threads would
# spin against the interpreter thread and add noise, not throughput.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6  # extra fresh-process set-ups; setup_s is the median of 1 + 6


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("waterfall", "floor_regime", "stream_decode"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time imports and codec construction, print it")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


# -- machine facts ------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the BLAS library loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


# -- set-up -------------------------------------------------------------------


def set_up(tracing):
    """Import numpy and stairfec and build the codecs; returns seconds taken.

    With ``tracing`` the construction runs under a Tracer, which is returned
    uninstalled so that the caller decides which operations it sees.
    """
    start = perf_counter()
    import workloads  # numpy and stairfec

    tracer = None
    if tracing:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        codecs = workloads.build_codecs()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return perf_counter() - start, workloads, codecs, tracer


def probe_setup(workload):
    """Set-up time of a fresh interpreter, for the setup_s median."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-probe"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# -- measuring ----------------------------------------------------------------


class Tally:
    """Operation accounting and timings over a workload's counted set."""

    def __init__(self, wl, workload, rounds):
        self.wl = wl
        self.workload = workload
        n = len(wl.FAMILIES)
        self.counters = [[None] * rounds for _ in range(n)]  # first result per op
        self.runs = [[0] * rounds for _ in range(n)]  # completed runs per op
        self.times = [[] for _ in range(n)]  # every timed operation, per code
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, codec, family, rnd, op_input):
        """Execute one operation; returns its seconds, or None if it failed."""
        name = self.wl.FAMILIES[family][0]
        self.attempted += 1
        try:
            seconds, counters = self.wl.execute(self.workload, codec, op_input)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        self.problems += self.wl.check_counters(self.workload, family, counters)
        first = self.counters[family][rnd]
        if first is None:
            self.counters[family][rnd] = counters
        elif first != counters:
            self.problems.append(f"{name} round {rnd}: a repeat gave counters "
                                 f"{counters}, the first run {first}")
        self.runs[family][rnd] += 1
        self.times[family].append(seconds)
        return seconds

    def check_residuals(self, codecs, inputs):
        """Locate the residual errors of each operation, after the timed runs.

        A stream request whose payload came back wrong where the decoder
        should have corrected it counts as failed on every run of it; such
        a Monte Carlo frame makes the run incorrect.
        """
        for family, codec in enumerate(codecs):
            for rnd, counters in enumerate(self.counters[family]):
                if counters is None:
                    continue
                problems = self.wl.check_residual(
                    self.workload, codec, inputs[rnd][family], counters)
                if problems and self.workload.stream:
                    self.failed += self.runs[family][rnd]
                    print("\n".join(problems), file=sys.stderr)
                self.problems += problems

    def totals(self):
        """Counters of each code summed over the counted set."""
        width = len(self.workload.counter_names)
        return [
            [sum(c[i] for c in per_op if c is not None) for i in range(width)]
            for per_op in self.counters
        ]

    def ms(self, family):
        """Every timed operation of one code, in milliseconds."""
        return [t * 1e3 for t in self.times[family]]


def prepare_all(wl, workload, codecs, seed, rounds):
    return [
        [wl.prepare(workload, codec, family, seed, rnd)
         for family, codec in enumerate(codecs)]
        for rnd in range(rounds)
    ]


def measure(wl, workload, codecs, seed, seconds, rounds):
    """Untraced run: passes over the counted set until ``seconds`` have passed.

    Every pass repeats the same inputs, so the counters of the counted set
    can be checked on each repeat; every repeat is timed.
    """
    inputs = prepare_all(wl, workload, codecs, seed, rounds)
    tally = Tally(wl, workload, rounds)
    deadline = perf_counter() + seconds
    first_pass = True
    while first_pass or perf_counter() < deadline:
        for rnd in range(rounds):
            for family, codec in enumerate(codecs):
                tally.run(codec, family, rnd, inputs[rnd][family])
            if not first_pass and perf_counter() >= deadline:
                break
        first_pass = False
    tally.check_residuals(codecs, inputs)
    return tally


def measure_traced(wl, workload, codecs, seed, rounds, tracer):
    """One pass over the counted set, each operation traced and untraced.

    The order alternates per operation so that warm-up favours neither side.
    The traced runs feed the per-layer metrics; each pair gives one ratio of
    traced to untraced time, for the tracing overhead.
    """
    inputs = prepare_all(wl, workload, codecs, seed, rounds)
    traced = Tally(wl, workload, rounds)
    plain = Tally(wl, workload, rounds)
    ratios = []
    for rnd in range(rounds):
        for family, codec in enumerate(codecs):
            first_traced = (rnd + family) % 2 == 0
            for with_trace in (first_traced, not first_traced):
                if with_trace:
                    tracer.install()
                    try:
                        slow = traced.run(codec, family, rnd, inputs[rnd][family])
                    finally:
                        tracer.uninstall()
                else:
                    fast = plain.run(codec, family, rnd, inputs[rnd][family])
            if slow is not None and fast is not None:
                ratios.append(slow / fast)
            got, want = traced.counters[family][rnd], plain.counters[family][rnd]
            if got is not None and want is not None and got != want:
                traced.problems.append(
                    f"{wl.FAMILIES[family][0]} round {rnd}: counters differ "
                    f"with tracing ({got} vs {want})"
                )
    plain.check_residuals(codecs, inputs)
    return traced, plain, ratios


def peak_mb_pass(wl, codecs, seed):
    """Peak traced allocation of the construction searches and encoders.

    A separate pass, so that tracemalloc does not inflate the timings.
    """
    import numpy as np
    from stairfec import ff, pff

    searches = {"ff": ff.search_construction, "pff": pff.search_pff_construction}
    calls = {
        f"{name}.{searches[name].__name__}": functools.partial(searches[name], *args)
        for name, args, *_ in wl.FAMILIES if name in searches
    }
    rng = np.random.default_rng(seed)
    for (name, *_), codec in zip(wl.FAMILIES, codecs):
        module = "staircase" if name == "sc" else name
        payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
        calls[f"{module}.encode_payload"] = (
            lambda codec=codec, payload=payload: codec.encode_payload(payload)
        )
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in calls.items():
            gc.collect()  # free the previous call's garbage before the baseline
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    return peaks


# -- reporting ----------------------------------------------------------------


def print_counters(wl, workload, tally, seed, rounds):
    for (name, *_), counters in zip(wl.FAMILIES, tally.totals()):
        row = dict(zip(workload.counter_names, counters))
        row["post_ber"] = row["bit_errors"] / row["info_bits"] if row["info_bits"] else 0.0
        print(f"counters {name} seed={seed} p={workload.p} rounds={rounds} "
              + json.dumps(row))


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def print_latency(wl, tally):
    """Latency distribution of each code, with the sample counts behind it."""
    for family, (name, _, _, info_bits, _) in enumerate(wl.FAMILIES):
        ms = tally.ms(family)
        if not ms:
            continue
        tail = p90(ms)
        print(f"latency {name}: {len(ms)} operations, {sum(t > tail for t in ms)} "
              f"beyond p90; p50 {statistics.median(ms):.3f} ms, p90 {tail:.3f} ms, "
              f"max {max(ms):.3f} ms; mean {info_bits * len(ms) / sum(ms) / 1e3:.4f} "
              f"information Mb/s")


def end_to_end_metrics(wl, tally, setup_times):
    """Each code's p90 over every timed operation of the run.

    On a shared machine one thread's speed moves between two levels about
    1.5x apart, in stretches of seconds, as neighbours come and go; the
    share of slow stretches varies from run to run, which moves a median or
    mean, while the p90 stays in the slow level.  Over ten 30 s runs per
    workload on a 2-vCPU Xeon VM, the spread of a code's p90 (quartile
    distance over median) was 6-14%, of its median 9-35%, of its mean
    8-23% and of the mean fastest repeat per input 10-30%.
    """
    metrics = {}
    for family, (name, *_) in enumerate(wl.FAMILIES):
        metrics[f"{name}.frame_ms_p90"] = (p90(tally.ms(family)), "ms")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer_metrics(tracer, ratios, peaks):
    from tracing import COUNT_NAMES

    metrics = {}
    for name, (calls, incl, excl) in tracer.summary().items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.s"] = (incl, "s")
        metrics[f"{name}.self_s"] = (excl, "s")
    for name in COUNT_NAMES:
        metrics[name] = (tracer.counts[name], "count")
    for name, peak in peaks.items():
        metrics[f"{name}.peak_mb"] = (peak, "MB")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0, "%")
    return metrics


def print_metrics(metrics, exact):
    for name, (value, unit) in metrics.items():
        note = "  (count, exact at this seed)" if name in exact else ""
        print(f"metric {name} = {value} {unit}{note}")


# -- main ---------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stairfec" / "__init__.py").is_file():
        print(f"perfbench: stairfec sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(False)[0]}))
        return 0

    setup_s, wl, codecs, tracer = set_up(bool(args.trace))
    workload = wl.WORKLOADS[args.workload]
    rounds = workload.rounds
    print(f"# stairfec benchmark workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} counted_rounds={rounds}")
    print("machine " + json.dumps(machine_facts()))

    if args.trace:
        tally, plain, ratios = measure_traced(wl, workload, codecs, args.seed,
                                              rounds, tracer)
        metrics = per_layer_metrics(tracer, ratios,
                                    peak_mb_pass(wl, codecs, args.seed))
        exact = {n for n, (_, unit) in metrics.items() if unit == "count"}
        attempted = tally.attempted + plain.attempted
        failed = tally.failed + plain.failed
        problems = tally.problems + plain.problems
        summary = sorted(tracer.summary().items(), key=lambda kv: -kv[1][2])
        print("trace by self time: " + ", ".join(
            f"{name} {excl:.3f}s" for name, (_, _, excl) in summary if excl))
    else:
        tally = measure(wl, workload, codecs, args.seed, args.seconds, rounds)
        setups = [setup_s] + [probe_setup(workload.name) for _ in range(SETUP_PROBES)]
        metrics = end_to_end_metrics(wl, tally, setups)
        exact = set()
        attempted, failed, problems = tally.attempted, tally.failed, tally.problems
        print_latency(wl, tally)
        print(f"setup samples (s): {setups}")
    problems += wl.check_totals(workload, tally.totals())
    print_counters(wl, workload, tally, args.seed, rounds)
    print_metrics(metrics, exact)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
