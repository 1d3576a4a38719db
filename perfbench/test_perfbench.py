"""Self-test of the benchmark: a tiny run of every workload and mode.

Run from the repository root (takes about a minute):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seconds", "0", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    res = result(proc)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    for m in spec:
        assert f"metric {m['name']} = " in proc.stdout
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_same_seed_gives_identical_counters():
    def counters(proc):
        result(proc)
        return [line for line in proc.stdout.splitlines()
                if line.startswith("counters ")]

    first = counters(bench("--workload", "waterfall", "--seed", "11"))
    second = counters(bench("--workload", "waterfall", "--seed", "11"))
    assert len(first) == 3 and all('"post_ber"' in line for line in first)
    assert first == second


def test_child_self_time_never_exceeds_parent():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from stairfec import framing, sim
        from tracing import Tracer
    finally:
        del sys.path[:2]

    original = sim.build_codec
    tracer = Tracer()
    tracer.install()
    try:
        codec = sim.build_codec("ff", 6, 1, 1, length=4)
        sim.run_monte_carlo(codec, 0.02, max_frames=2, min_bit_errors=1 << 62)
        frame = codec.encode_payload([0] * codec.payload_bits)
        framing.read_stream(framing.write_stream(codec, frame))
    finally:
        tracer.uninstall()
    assert sim.build_codec is original

    own = tracer.self_times()
    children = [0.0] * len(tracer.spans)
    for (_, start, end, parent), self_s in zip(tracer.spans, own):
        if parent >= 0:
            p_start, p_end = tracer.spans[parent][1:3]
            assert p_start <= start <= end <= p_end
            assert self_s <= p_end - p_start
            children[parent] += end - start
    for (_, start, end, _), total in zip(tracer.spans, children):
        assert total <= end - start
    calls = {name: c for name, (c, _, _) in tracer.summary().items()}
    assert calls["sim.run_frames"] >= 1 and calls["framing.read_stream"] == 1
    # read_stream reaches ff.search_construction through sim's own binding
    assert calls["ff.search_construction"] == 2


def test_residual_errors_count_only_in_final_words_beyond_reach():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import numpy as np
        import workloads as wl
        from stairfec import framing
    finally:
        del sys.path[:2]

    floor, stream = wl.WORKLOADS["floor_regime"], wl.WORKLOADS["stream_decode"]
    codec = wl.sim.build_codec("sc", 8, 3, 63, window=wl.WINDOW, l_max=wl.L_MAX,
                               length=8)
    # This frame's last block took 4 channel errors in row 75; 3 of them sit
    # in information bits that no decoder within t = 3 can restore.
    frame_seed = wl.master_seed(1630846246, 34)
    _, counters = wl.execute(floor, codec, frame_seed)
    assert counters == (1, 55296, 3, 8, 1)
    assert wl.check_residual(floor, codec, frame_seed, counters) == []
    assert wl.check_residual(floor, codec, frame_seed, (1, 55296, 2, 8, 1))

    # Word i covers row i of the last block and column i of the one before.
    payload = np.zeros(codec.payload_bits, dtype=np.uint8)
    heavy = frozenset({10, 75})
    cols = codec.info_cols
    last = payload.size - codec.M * cols
    before = last - codec.M * cols
    for index, unexplained in ((last + 75 * cols + 5, 0),
                               (before + 3 * cols + 10, 0),
                               (last + 74 * cols + 5, 1),
                               (before + 3 * cols + 11, 1),
                               (before - 1, 1), (0, 1)):
        decoded = payload.copy()
        decoded[index] ^= 1
        assert wl.unexplained_errors(codec, payload, decoded, heavy) == unexplained

    # A stream request whose last block took 4 errors in one row
    frame = codec.encode_payload(payload)
    frame.blocks[-1][10, [1, 20, 40, 60]] ^= 1
    sent = codec.encode_payload(payload).blocks[-1]
    request = (payload, framing.write_stream(codec, frame),
               wl.heavy_words(codec, sent, frame.blocks[-1]))
    assert request[2] == frozenset({10})
    _, counters = wl.execute(stream, codec, request)
    assert counters[2] > 0
    assert wl.check_residual(stream, codec, request, counters) == []
    assert wl.check_residual(stream, codec, request[:2] + (frozenset(),), counters)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "waterfall", "--seed", "1", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
