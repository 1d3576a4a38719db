import json
import multiprocessing
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

import stairfec
from stairfec import ff
from stairfec.sim import build_codec, bsc_corrupt, run_frames, run_monte_carlo


def toy_factory():
    return build_codec("sc", 4, 1, 1, length=6, window=4, l_max=4)


def test_build_codec_families():
    assert build_codec("sc", 4, 1, 1, length=4).family == "sc"
    assert build_codec("ff", 6, 1, 1, length=4).family == "ff"
    assert build_codec("pff", 7, 2, 41, L=1, length=2).family == "pff"
    with pytest.raises(ValueError):
        build_codec("nope", 4, 1, 1)
    # 2r >= M: params, floor and read_stream reject these ff codes too
    for m, t, s in [(6, 2, 1), (6, 2, 3), (7, 3, 1), (5, 1, 1), (6, 2, 5)]:
        with pytest.raises(ValueError):
            build_codec("ff", m, t, s, length=2)


def test_cli_import_leaves_the_process_pool_out():
    """Only a run with workers > 1 imports the process pool.  What
    stairfec.cli imports beside sim decides this too, numpy and the
    standard library only: it was checked at numpy 2.4, not at the numpy
    1.24 floor of CI.  If numpy there imports multiprocessing, this fails
    for a reason outside stairfec, and the check to keep is that importing
    sim adds neither module to an interpreter that lacked them."""
    src = os.path.dirname(os.path.dirname(stairfec.__file__))
    code = ("import sys, stairfec.cli; print(sorted(sys.modules.keys() & "
            "{'concurrent.futures.process', 'multiprocessing'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"



def test_cli_runs_without_scipy():
    """scipy is no run-time dependency: importing stairfec.cli leaves it
    out, and ncg, the one verb whose function once needed it, runs where
    importing scipy fails."""
    src = os.path.dirname(os.path.dirname(stairfec.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, stairfec.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "False"
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['scipy'] = None; from stairfec.cli import "
         "main; sys.exit(main(['ncg', '--rate', '3/4', '--p15', '1.82e-2']))"],
        capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["gap_db"] == pytest.approx(1.64, abs=0.02)

def test_bsc_corrupt_rates():
    codec = toy_factory()
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    rng = np.random.default_rng(0)
    flipped = bsc_corrupt(codec, frame, 0.5, rng)
    total = sum(a.size for a in codec.channel_arrays(frame))
    assert 0.35 * total < flipped < 0.65 * total
    frame2 = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    assert bsc_corrupt(codec, frame2, 0.0, rng) == 0


def test_run_frames_noiseless_counts():
    codec = toy_factory()
    frames, bits, bit_err, blocks, blk_err = run_frames(codec, 0.0, 7, range(5))
    assert frames == 5
    assert bits == 5 * codec.payload_bits
    assert bit_err == 0 and blk_err == 0
    assert blocks == 5 * codec.n_blocks


def test_frame_results_depend_only_on_index():
    codec = toy_factory()
    a = run_frames(codec, 0.05, 3, [4])
    b = run_frames(codec, 0.05, 3, [4])
    assert a == b
    c = run_frames(codec, 0.05, 3, [5])
    # different frame index draws different noise (counts may coincide,
    # so compare the error totals over a few frames)
    many_a = run_frames(codec, 0.05, 3, range(10))
    many_b = run_frames(codec, 0.05, 4, range(10))
    assert many_a != many_b or c != a


def test_worker_invariance():
    report1 = run_monte_carlo(toy_factory, 0.02, master_seed=11,
                              min_bit_errors=20, max_frames=200, workers=1)
    report3 = run_monte_carlo(toy_factory, 0.02, master_seed=11,
                              min_bit_errors=20, max_frames=200, workers=3)
    for attr in ("frames", "info_bits", "bit_errors", "blocks", "block_errors"):
        assert getattr(report1, attr) == getattr(report3, attr)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers inherit the parent's "
                           "construction memo; others search again")
def test_forked_workers_reuse_the_memoized_construction(monkeypatch):
    codec = build_codec("ff", 6, 1, 1, length=4, window=4, l_max=4)

    def refuse(*args, **kwargs):
        raise AssertionError("a worker searched for the construction again")

    monkeypatch.setattr(ff, "build_construction", refuse)
    run = partial(run_monte_carlo, codec, 0.02, master_seed=7,
                  min_bit_errors=1 << 62, max_frames=8, batch_frames=4)
    one, two = run(workers=1), run(workers=2)
    for attr in ("frames", "info_bits", "bit_errors", "blocks", "block_errors"):
        assert getattr(one, attr) == getattr(two, attr)
    assert two.frames == 8


def test_stop_rules():
    # max_frames caps the run
    report = run_monte_carlo(toy_factory, 0.0, min_bit_errors=1,
                             max_frames=32, batch_frames=16)
    assert report.frames == 32 and report.bit_errors == 0
    # heavy noise hits the error budget quickly
    report = run_monte_carlo(toy_factory, 0.2, min_bit_errors=5,
                             max_frames=1000, batch_frames=4)
    assert report.bit_errors >= 5
    assert report.frames < 1000


def test_batch_frames_below_one_is_refused_before_building():
    built = []

    def factory():
        built.append(1)
        return toy_factory()

    for batch in (0, -1):
        with pytest.raises(ValueError):
            run_monte_carlo(factory, 0.01, batch_frames=batch, max_frames=0)
    assert not built


def test_report_statistics():
    report = run_monte_carlo(toy_factory, 0.2, master_seed=1,
                             min_bit_errors=10, max_frames=100)
    assert report.ber == report.bit_errors / report.info_bits
    assert report.bker == report.block_errors / report.blocks
    assert 0 < report.ber_ci95 < 1
    d = report.as_dict()
    assert d["family"] == "sc" and d["p"] == 0.2


def test_partial_factory_is_picklable():
    import pickle

    factory = partial(build_codec, "sc", 4, 1, 1, length=6)
    pickle.loads(pickle.dumps(factory))
