import json
import math
import time

import numpy as np
import pytest

from stairfec import sim
from stairfec.cli import build_parser, main
from stairfec.framing import FAMILY_CODES, HEADER, MAGIC, write_stream
from stairfec.sim import build_codec


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_params_json(capsys):
    code, out = run_cli(capsys, [
        "params", "--family", "ff", "--m", "8", "--t", "3", "--s", "63",
    ])
    assert code == 0
    d = json.loads(out)
    assert d["M"] == 72 and d["R"] == "3/4"


def test_params_invalid_exits_3(capsys, tmp_path):
    code = main(["params", "--family", "pff", "--m", "4", "--t", "2",
                 "--s", "0"])
    assert code == 3
    # 2r >= M: the code params rejects is the one encode rejects
    code = main(["params", "--family", "ff", "--m", "6", "--t", "2",
                 "--s", "1"])
    assert code == 3
    payload_file = tmp_path / "payload.bin"
    payload_file.write_bytes(bytes(4096))
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--family", "ff", "--m", "6", "--t", "2", "--s", "1",
              "--length", "2", "--in", str(payload_file),
              "--out", str(tmp_path / "x.sfc")])
    assert exc.value.code == 3
    assert not (tmp_path / "x.sfc").exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["params", "--family", "ff", "--m", "8"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus-verb"])
    assert exc.value.code == 2


def test_encode_decode_round_trip(tmp_path, capsys):
    codec = build_codec("sc", 4, 1, 1, length=4, window=4, l_max=4)
    rng = np.random.default_rng(3)
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    payload_file = tmp_path / "payload.bin"
    payload_file.write_bytes(np.packbits(payload).tobytes())
    stream_file = tmp_path / "frame.sfc"
    out_file = tmp_path / "decoded.bin"

    code = main([
        "encode", "--family", "sc", "--m", "4", "--t", "1", "--s", "1",
        "--length", "4", "--window", "4", "--l-max", "4",
        "--in", str(payload_file), "--out", str(stream_file),
    ])
    assert code == 0
    capsys.readouterr()

    code, out = run_cli(capsys, [
        "decode", "--in", str(stream_file), "--out", str(out_file),
        "--window", "4", "--l-max", "4",
    ])
    assert code == 0
    assert json.loads(out)["payload_bits"] == codec.payload_bits
    got = np.unpackbits(
        np.frombuffer(out_file.read_bytes(), dtype=np.uint8),
        count=codec.payload_bits,
    )
    assert (got == payload).all()


def test_encode_short_payload_exits_4(tmp_path, capsys):
    payload_file = tmp_path / "short.bin"
    payload_file.write_bytes(b"\x00")
    code = main([
        "encode", "--family", "sc", "--m", "4", "--t", "1", "--s", "1",
        "--length", "4", "--in", str(payload_file),
        "--out", str(tmp_path / "x.sfc"),
    ])
    assert code == 4


def test_encode_into_missing_directory_exits_4(tmp_path):
    payload_file = tmp_path / "payload.bin"
    payload_file.write_bytes(bytes(64))
    code = main(["encode", "--family", "sc", "--m", "4", "--t", "1",
                 "--s", "1", "--length", "4", "--in", str(payload_file),
                 "--out", str(tmp_path / "missing" / "x.sfc")])
    assert code == 4


def test_decode_into_missing_directory_exits_4(tmp_path):
    codec = build_codec("sc", 4, 1, 1, length=4)
    frame = codec.encode_payload(np.zeros(codec.payload_bits, dtype=np.uint8))
    stream = tmp_path / "frame.sfc"
    stream.write_bytes(write_stream(codec, frame))
    code = main(["decode", "--in", str(stream),
                 "--out", str(tmp_path / "missing" / "y.bin")])
    assert code == 4


def test_decode_garbage_exits_4(tmp_path):
    bad = tmp_path / "bad.sfc"
    bad.write_bytes(b"garbage stream")
    code = main(["decode", "--in", str(bad),
                 "--out", str(tmp_path / "y.bin")])
    assert code == 4


@pytest.mark.parametrize("family,m,t,L,s,length", [
    ("sc", 20, 3, 0, 63, 8),     # no GF(2^20) table
    ("sc", 8, 0, 0, 63, 8),      # t = 0
    ("ff", 6, 1, 0, 1, 3),       # odd ff block count
    ("pff", 7, 2, 0, 41, 2),     # L = 0
])
def test_decode_invalid_header_exits_4(tmp_path, family, m, t, L, s, length):
    stream = tmp_path / "bad.sfc"
    stream.write_bytes(HEADER.pack(MAGIC, FAMILY_CODES[family], m, t, L, s,
                                   length, 0, 100) + bytes(64))
    code = main(["decode", "--in", str(stream),
                 "--out", str(tmp_path / "y.bin")])
    assert code == 4


def test_decode_oversized_construction_exits_4(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("construction search ran")

    monkeypatch.setattr(sim, "search_construction", refuse)
    # ff(11,3,1): M = 990 and r = 33, so A would have 32,670 rows; the
    # header's sizes agree with a 253 KB body of two blocks
    stream = tmp_path / "big.sfc"
    stream.write_bytes(HEADER.pack(MAGIC, FAMILY_CODES["ff"], 11, 3, 0, 1, 2,
                                   0, 2 * 990 * 990)
                       + bytes(-(-2 * 990 * 1023 // 8)))
    code = main(["decode", "--in", str(stream),
                 "--out", str(tmp_path / "y.bin")])
    assert code == 4


@pytest.mark.parametrize("seed", ["5000000000", "-1"])
def test_encode_seed_out_of_range_exits_2(tmp_path, seed):
    payload_file = tmp_path / "payload.bin"
    payload_file.write_bytes(bytes(64))
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--family", "sc", "--m", "4", "--t", "1", "--s", "1",
              "--length", "4", "--seed", seed, "--in", str(payload_file),
              "--out", str(tmp_path / "x.sfc")])
    assert exc.value.code == 2


@pytest.mark.parametrize("option,value", [
    ("--L", "256"), ("--L", "-1"), ("--length", "65536"), ("--length", "-1"),
])
def test_encode_header_field_out_of_range_exits_2(tmp_path, option, value):
    payload_file = tmp_path / "payload.bin"
    payload_file.write_bytes(bytes(64))
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--family", "pff", "--m", "7", "--t", "2", "--s", "41",
              "--L", "2", "--length", "1", option, value,
              "--in", str(payload_file), "--out", str(tmp_path / "x.sfc")])
    assert exc.value.code == 2


def test_construct_writes_cache(tmp_path, monkeypatch, capsys):
    """construct no longer writes a cache: it only prints the construction."""
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(capsys, ["construct", "--family", "ff", "--m", "6",
                                  "--t", "1", "--s", "1"])
    assert code == 0
    assert json.loads(text) == {"family": "ff", "mode": "low_ef", "M": 25,
                                "r": 6}
    assert list(tmp_path.iterdir()) == []


def test_construct_writes_exactly_the_reported_path(tmp_path, monkeypatch,
                                                    capsys):
    """construct reports no path and leaves the working directory empty."""
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(capsys, ["construct", "--family", "pff", "--m", "7",
                                  "--t", "2", "--s", "41"])
    assert code == 0
    assert json.loads(text) == {"family": "pff", "mode": "identity", "M": 29,
                                "r": 14}
    assert list(tmp_path.iterdir()) == []


def test_simulate_searches_once_for_every_p(monkeypatch, capsys):
    from stairfec import sim
    calls = []
    search = sim.search_construction

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(sim, "search_construction", counting)
    code, out = run_cli(capsys, [
        "simulate", "--family", "ff", "--m", "6", "--t", "1", "--s", "1",
        "--length", "2", "--window", "2", "--l-max", "2", "--workers", "1",
        "--p", "0.01,0.02,0.03", "--min-bit-errors", "1", "--max-frames", "2",
    ])
    assert code == 0
    assert len(json.loads(out)) == 3
    assert len(calls) == 1


def test_construct_sc_rejected():
    code = main(["construct", "--family", "sc", "--m", "4", "--t", "1",
                 "--s", "1"])
    assert code == 3


def test_inject_reports_certificate(capsys):
    code, out = run_cli(capsys, [
        "inject", "--family", "sc", "--m", "5", "--t", "2", "--s", "1",
        "--length", "6", "--window", "4", "--l-max", "6",
        "--pattern-seed", "1",
    ])
    assert code == 0
    d = json.loads(out)
    assert d["weight"] == 9
    assert d["fixed_point"] and d["single_deletions_corrected"]


def test_simulate_csv(capsys):
    code, out = run_cli(capsys, [
        "simulate", "--family", "sc", "--m", "4", "--t", "1", "--s", "1",
        "--length", "4", "--window", "4", "--l-max", "4",
        "--p", "0.0,0.01", "--min-bit-errors", "5", "--max-frames", "20",
        "--csv",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert "p" in header and "ber" in header


def test_floor_and_ncg(capsys):
    code, out = run_cli(capsys, [
        "floor", "--family", "ff", "--m", "8", "--t", "3", "--s", "63",
        "--p", "1e-3",
    ])
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["weight"] == 8

    code, out = run_cli(capsys, ["ncg", "--rate", "3/4", "--p15", "1.82e-2"])
    assert code == 0
    assert json.loads(out)["gap_db"] == pytest.approx(1.64, abs=0.02)


def _finite_json(text):
    """``text`` as JSON, refusing the NaN and Infinity that json.dumps
    writes for non-finite floats."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


FLOOR = ["floor", "--family", "ff", "--m", "8", "--t", "3", "--s", "63"]


@pytest.mark.parametrize("argv", [
    ["ncg", "--rate", "abc", "--p15", "1.82e-2"],
    ["ncg", "--rate", "1", "--p15", "1.82e-2"],
    ["ncg", "--rate", "0", "--p15", "1.82e-2"],
    ["ncg", "--rate", "5/4", "--p15", "1.82e-2"],
    ["ncg", "--rate", "1/0", "--p15", "1.82e-2"],
    ["ncg", "--rate", "3/4", "--p15", "0.6"],
    ["ncg", "--rate", "3/4", "--p15", "0.5"],
    ["ncg", "--rate", "3/4", "--p15", "0"],
    ["ncg", "--rate", "3/4", "--p15", "-1"],
    ["ncg", "--rate", "3/4", "--p15", "nan"],
    FLOOR + ["--p", "2"],
    FLOOR + ["--p", "1"],
    FLOOR + ["--p", "1e-3,0"],
    FLOOR + ["--p", "-1e-3"],
    FLOOR + ["--p", "nan"],
], ids=lambda argv: " ".join(argv[:1] + argv[-4:]))
def test_out_of_range_ncg_and_floor_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("rate", ["1e3000000", "1e-3000000", "3e+0_000_401",
                                  "1e401", "1e-401"])
def test_rate_with_an_exponent_beyond_floats_exits_2_quickly(rate):
    """Fraction would build 10**exponent exactly before the range check."""
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["ncg", "--rate", rate, "--p15", "1e-3"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 0.5


def test_rate_keeps_decimal_and_fraction_forms(capsys):
    for rate in ("3/4", "0.75", "7.5e-1", "75E-2", "7500e-4", "0.0075e+2"):
        code, out = run_cli(capsys, ["ncg", "--rate", rate, "--p15", "1e-3"])
        assert code == 0
        assert json.loads(out)["rate"] == "3/4"


def test_floor_caps_estimates_at_one(capsys):
    for family in ("sc", "ff", "pff"):
        code, out = run_cli(capsys, FLOOR[:2] + [family] + FLOOR[3:]
                            + ["--p", "0.5,1e-3"])
        assert code == 0
        high, low = _finite_json(out)
        assert high["bker"] == high["ber"] == 1.0
        assert 0 < low["ber"] < low["bker"] < 1


def test_ncg_and_floor_print_finite_json(capsys):
    for rate, p15 in [("3/4", "1.82e-2"), ("0.75", "1e-300"),
                      ("1/1000", "0.49"), ("999/1000", "1e-3")]:
        code, out = run_cli(capsys, ["ncg", "--rate", rate, "--p15", p15])
        assert code == 0
        assert math.isfinite(_finite_json(out)["gap_db"])
    for family in ("sc", "ff", "pff"):
        code, out = run_cli(capsys, FLOOR[:2] + [family] + FLOOR[3:]
                            + ["--p", "1e-300,1e-3,0.999"])
        assert code == 0
        assert [row["p"] for row in _finite_json(out)] == [1e-300, 1e-3, 0.999]


SIMULATE = ["simulate", "--family", "sc", "--m", "6", "--t", "1", "--s", "1",
            "--length", "2", "--max-frames", "4"]
INJECT = ["inject", "--family", "sc", "--m", "6", "--t", "1", "--s", "1"]
DECODE = ["decode", "--in", "x.sfc", "--out", "x.bin"]


@pytest.mark.parametrize("argv", [
    SIMULATE + ["--p", "0.01", "--batch-frames", "0"],
    SIMULATE + ["--p", "0.01", "--batch-frames", "-1"],
    SIMULATE + ["--p", "0.01", "--master-seed", "-1"],
    INJECT + ["--pattern-seed", "-1"],
    SIMULATE + ["--p", "2"],
    SIMULATE + ["--p", "nan"],
    SIMULATE + ["--p", "-0.01"],
    SIMULATE + ["--p", ","],
    SIMULATE + ["--p", ",", "--csv"],
    SIMULATE + ["--p", "0.005", "--window", "1"],
    SIMULATE + ["--p", "0.005", "--l-max", "0"],
    SIMULATE + ["--p", "0.005", "--l-max", "-1"],
    SIMULATE + ["--p", "0.01", "--workers", "-2"],
    SIMULATE + ["--p", "0.01", "--workers", "0"],
    SIMULATE + ["--p", "0.01", "--max-frames", "0"],
    DECODE + ["--window", "1"],
    DECODE + ["--l-max", "0"],
    FLOOR + ["--p", ","],
], ids=lambda argv: " ".join(argv[:1] + argv[-4:]))
def test_out_of_range_options_exit_2(argv):
    """Checked by the parser alone, so none of these can run, let alone
    hang, whatever the program would do with the value."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_in_range_options_parse():
    args = build_parser().parse_args(
        SIMULATE + ["--p", "0.0,1,0.5,", "--window", "2", "--l-max", "1",
                    "--batch-frames", "1", "--workers", "1",
                    "--master-seed", "0", "--max-frames", "1"])
    assert args.p == [0.0, 1.0, 0.5]
    assert (args.window, args.l_max, args.batch_frames, args.workers,
            args.master_seed, args.max_frames) == (2, 1, 1, 1, 0, 1)
