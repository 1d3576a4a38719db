"""
Command-line front end.

Verbs: params, construct, encode, decode, inject, simulate, floor, ncg.
Exit codes: 0 success, 2 usage errors (argparse, out-of-range values
included), 3 invalid code parameters or construction failure, 4 stream or
payload format errors, unreadable inputs and unwritable outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .floors import certify_stall, ff_floor, gen_stall, ncg_gap, pff_floor, sc_floor
from .framing import StreamFormatError, read_stream, write_stream
from .parameters import FAMILIES, family_params
from .sim import build_codec, run_monte_carlo

EXIT_CONSTRUCTION = 3
EXIT_FORMAT = 4


def _add_code_args(p, family_required=True):
    p.add_argument("--family", choices=FAMILIES, required=family_required)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)


def _within(parse, low, high, closed=False):
    """Argument type: ``parse(text)`` once it lies between ``low`` and ``high``,
    strictly unless ``closed``.  An integer is compared exactly, any other
    value as a float (NaN never lies between, and a fraction that rounds to
    an open bound is refused, so float arithmetic stays inside)."""
    def check(text):
        try:
            value = parse(text)
            number = value if isinstance(value, int) else float(value)
            if low < number < high or closed and number in (low, high):
                return value
        except (ArithmeticError, ValueError):  # 1/0, or too large a float
            pass
        interval = f"[{low}, {high}]" if closed else f"({low}, {high})"
        raise argparse.ArgumentTypeError(f"{text!r} is not in {interval}")
    return check


# 10**400 and 10**-400 lie beyond every float (1.8e308 down to 4.9e-324)
_MAX_EXPONENT = 400
_EXPONENT = re.compile(r"[eE][+-]?(\d[\d_]*)")


def _fraction(text):
    """``Fraction(text)``, refusing first a decimal exponent beyond
    ``_MAX_EXPONENT``: Fraction builds 10**exponent exactly, which takes
    seconds for an exponent in the millions."""
    for digits in _EXPONENT.findall(text):
        digits = digits.replace("_", "").lstrip("0")
        if len(digits) > 3 or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"exponent of {text!r} is out of float range")
    return Fraction(text)


def _list_of(parse):
    """Argument type: comma-separated values, each read by ``parse``."""
    def comma_list(text):
        values = [parse(x) for x in text.split(",") if x]
        if not values:
            raise argparse.ArgumentTypeError(f"{text!r} lists no value")
        return values
    return comma_list


def _unsigned(width):
    """Argument type for a value stored in a u``width`` stream header field."""
    return _within(int, -1, 1 << width)


def _add_codec_args(p):
    _add_code_args(p)
    p.add_argument("--L", type=_unsigned(8), default=2,
                   help="period length parameter (pff only)")
    p.add_argument("--length", type=_unsigned(16), default=8,
                   help="blocks per frame (sc/ff) or periods (pff)")
    _add_decoder_args(p)
    p.add_argument("--seed", type=_unsigned(32), default=0,
                   help="construction search seed")


def _add_decoder_args(p):
    # an sc window of one block spans no pair of blocks, so decodes no word
    p.add_argument("--window", type=_within(int, 1, math.inf), default=7)
    p.add_argument("--l-max", type=_within(int, 0, math.inf), default=8)


def _make_codec(args):
    try:
        return build_codec(
            args.family, args.m, args.t, args.s, L=args.L,
            length=args.length, window=args.window, l_max=args.l_max,
            seed=args.seed,
        )
    except ValueError as err:  # includes gf2.SingularMatrixError
        print(f"construction failed: {err}", file=sys.stderr)
        raise SystemExit(EXIT_CONSTRUCTION)


def cmd_params(args):
    try:
        params = family_params(args.family, args.m, args.t, args.s)
    except ValueError as err:
        print(f"invalid parameters: {err}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    print(json.dumps(params.as_dict(), indent=2))
    return 0


def cmd_construct(args):
    from .ff import search_construction
    from .pff import search_pff_construction

    if args.family == "sc":
        print("sc needs no precomputed construction", file=sys.stderr)
        return EXIT_CONSTRUCTION
    search = (search_construction if args.family == "ff"
              else search_pff_construction)
    try:
        family_params(args.family, args.m, args.t, args.s)
        cons = search(args.m, args.t, args.s, seed=args.seed)
    except ValueError as err:  # includes gf2.SingularMatrixError
        print(f"construction failed: {err}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    print(json.dumps({"family": args.family, "mode": cons.mode,
                      "M": cons.m_side, "r": cons.r}))
    return 0


def _read_payload(path, n_bits):
    with open(path, "rb") as fh:
        raw = np.frombuffer(fh.read(), dtype=np.uint8)
    if raw.size * 8 < n_bits:
        raise StreamFormatError(
            f"payload file has {raw.size * 8} bits, codec needs {n_bits}"
        )
    return np.unpackbits(raw, count=n_bits)


def cmd_encode(args):
    codec = _make_codec(args)
    try:
        payload = _read_payload(args.infile, codec.payload_bits)
    except (OSError, StreamFormatError) as err:
        print(f"cannot read payload: {err}", file=sys.stderr)
        return EXIT_FORMAT
    frame = codec.encode_payload(payload)
    data = write_stream(codec, frame)
    try:
        with open(args.out, "wb") as fh:
            fh.write(data)
    except OSError as err:
        print(f"cannot write stream: {err}", file=sys.stderr)
        return EXIT_FORMAT
    print(json.dumps({"config": codec.describe(), "bytes": len(data)}))
    return 0


def cmd_decode(args):
    try:
        with open(args.infile, "rb") as fh:
            data = fh.read()
        codec, frame = read_stream(data, window=args.window, l_max=args.l_max)
    except (OSError, StreamFormatError) as err:
        print(f"cannot read stream: {err}", file=sys.stderr)
        return EXIT_FORMAT
    codec.decode_frame(frame)
    payload = codec.extract_payload(frame)
    try:
        with open(args.out, "wb") as fh:
            fh.write(np.packbits(payload).tobytes())
    except OSError as err:
        print(f"cannot write payload: {err}", file=sys.stderr)
        return EXIT_FORMAT
    print(json.dumps({"config": codec.describe(),
                      "payload_bits": int(payload.size)}))
    return 0


def cmd_inject(args):
    codec = _make_codec(args)
    try:
        pattern = gen_stall(codec, seed=args.pattern_seed)
    except RuntimeError as err:
        print(f"stall generation failed: {err}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    fixed, minimal = certify_stall(codec, pattern)
    print(json.dumps({
        "config": codec.describe(),
        "weight": pattern.weight,
        "entries": list(pattern.entries),
        "fixed_point": bool(fixed),
        "single_deletions_corrected": bool(minimal),
    }, indent=2))
    return 0


def cmd_simulate(args):
    codec = _make_codec(args)  # once, for every p
    rows = []
    for p in args.p:
        report = run_monte_carlo(
            codec, p, master_seed=args.master_seed,
            min_bit_errors=args.min_bit_errors, max_frames=args.max_frames,
            batch_frames=args.batch_frames, workers=args.workers,
        )
        rows.append(report.as_dict())
    if args.csv:
        cols = list(rows[0].keys())
        print(",".join(cols))
        for row in rows:
            print(",".join(str(row[c]) for c in cols))
    else:
        print(json.dumps(rows, indent=2))
    return 0


def cmd_floor(args):
    try:
        params = family_params(args.family, args.m, args.t, args.s)
    except ValueError as err:
        print(f"invalid parameters: {err}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    rows = []
    for p in args.p:
        if args.family == "ff":
            est = ff_floor(params.M, params.r, args.t, p)
        elif args.family == "sc":
            est = sc_floor(params.M, args.t, p)
        else:
            est = pff_floor(params.M, args.t, p)
        rows.append({"family": est.family, "p": est.p, "bker": est.bker,
                     "ber": est.ber, "weight": est.weight})
    print(json.dumps(rows, indent=2))
    return 0


def cmd_ncg(args):
    gap = ncg_gap(args.rate, args.p15)
    print(json.dumps({"rate": str(args.rate), "p15": args.p15,
                      "gap_db": round(gap, 4)}))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stairfec",
        description="staircase / feed-forward staircase FEC toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("params", help="derived code parameters")
    _add_code_args(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("construct", help="search a construction and report it")
    _add_code_args(p)
    p.add_argument("--seed", type=_unsigned(32), default=0)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("encode", help="encode a payload file to a stream")
    _add_codec_args(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a stream file to a payload")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_decoder_args(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("inject", help="generate and certify a stall pattern "
                                      "(entries are stream-bit offsets)")
    _add_codec_args(p)
    p.add_argument("--pattern-seed", type=_within(int, -1, math.inf), default=0)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("simulate", help="Monte Carlo BSC simulation")
    _add_codec_args(p)
    p.add_argument("--p", type=_list_of(_within(float, 0, 1, closed=True)),
                   required=True, help="comma-separated probabilities in [0, 1]")
    p.add_argument("--master-seed", type=_within(int, -1, math.inf), default=0)
    p.add_argument("--min-bit-errors", type=_within(int, 0, math.inf),
                   default=100)
    p.add_argument("--max-frames", type=_within(int, 0, math.inf), default=10000)
    p.add_argument("--batch-frames", type=_within(int, 0, math.inf), default=16)
    p.add_argument("--workers", type=_within(int, 0, math.inf), default=1)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("floor", help="analytic error-floor estimate")
    _add_code_args(p)
    p.add_argument("--p", type=_list_of(_within(float, 0, 1)),
                   required=True,
                   help="comma-separated crossover probabilities in (0, 1)")
    p.set_defaults(func=cmd_floor)

    p = sub.add_parser("ncg", help="coding-gain gap to capacity")
    p.add_argument("--rate", type=_within(_fraction, 0, 1), required=True,
                   help="code rate as a fraction in (0, 1)")
    p.add_argument("--p15", type=_within(float, 0, 0.5), required=True,
                   help="crossover in (0, 0.5) giving output BER 1e-15")
    p.set_defaults(func=cmd_ncg)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
