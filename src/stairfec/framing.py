"""
On-disk format: framed bit streams.

A stream is a 20-byte little-endian header followed by the frame's
transmitted bits in buffer order (blocks, then per-pair FF redundancy),
packed 8 bits per byte:

    magic 'SFC1' | family u8 | m u8 | t u8 | L u8 |
    s u16 | length u16 | seed u32 | payload_bits u32

The fields family..seed are the codec's identity, the ``sim.build_codec``
arguments that made it: ``L`` is 0 for sc/ff, ``length`` counts blocks for
sc/ff and periods for pff, and ``seed`` is the codec's build seed, which
fixes the permutations.  The reader builds the codec through that call
and rejects a header which the built codec would not write, and, before
building anything, one whose body length does not match or whose FF/PFF
construction would solve a system of more than ``MAX_SYSTEM_ROWS`` rows.
The reader keeps each codec it builds, read-only, by the header's
identity and the decoder settings (``gf2.memoize``, within its byte
budget), so later streams of the same code reuse it and its compiled
decoding plan.
"""

from __future__ import annotations

import struct

import numpy as np

from . import gf2
from .parameters import family_params

__all__ = [
    "StreamFormatError",
    "FAMILY_CODES",
    "MAX_SYSTEM_ROWS",
    "write_stream",
    "read_stream",
]

MAGIC = b"SFC1"
HEADER = struct.Struct("<4sBBBBHHII")
FIELDS = ("family", "m", "t", "L", "s", "length", "seed", "payload_bits")
FAMILY_CODES = {"sc": 0, "ff": 1, "pff": 2}
FAMILY_NAMES = {v: k for k, v in FAMILY_CODES.items()}
# Rows of the largest GF(2) system whose inversion a stream header may ask
# for: M*r for ff (its A), 2r^2 for pff (the stage-2 unknowns that it solves
# for through an r^2 x r^2 system).  ff(10,3,183), the rate-13/14
# code, has 11,700 and takes 4-8 s and about 400 MB to construct on a 2-vCPU
# Xeon VM; ff(11,3,1) would have 32,670, and memory grows with rows squared.
MAX_SYSTEM_ROWS = 12_000


class StreamFormatError(ValueError):
    """Malformed or inconsistent stream contents."""


def _header_fields(codec):
    """The header of ``codec``'s streams, as :func:`parse_header` returns it."""
    fields = {**codec.identity(), "payload_bits": codec.payload_bits}
    return {name: fields[name] for name in FIELDS}


def write_stream(codec, frame):
    """Serialize a frame to bytes; the header is the codec's identity.

    Raises ValueError for a codec that ``sim.build_codec`` did not make,
    whose construction no header can name, or for a field the header
    cannot hold.
    """
    fields = _header_fields(codec)
    fields["family"] = FAMILY_CODES[fields["family"]]
    for (name, value), code in zip(fields.items(), HEADER.format[3:]):
        if not 0 <= value < 256 ** struct.calcsize(code):
            raise ValueError(f"{name} = {value} does not fit the stream header")
    body = np.packbits(frame.buf[:-1]).tobytes()
    return HEADER.pack(MAGIC, *fields.values()) + body


def parse_header(data):
    if len(data) < HEADER.size:
        raise StreamFormatError("truncated header")
    magic, fam, *rest = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}")
    if fam not in FAMILY_NAMES:
        raise StreamFormatError(f"unknown family code {fam}")
    return dict(zip(FIELDS, [FAMILY_NAMES[fam], *rest]))


def _frame_geometry(head):
    """``(n_tx, payload_bits)`` of the frame a parsed header describes.

    Arithmetic on the header fields, so that a stream's sizes, and the
    size of the system its construction search solves, are checked before
    any code is constructed.
    """
    family, length = head["family"], head["length"]
    try:
        params = family_params(family, head["m"], head["t"], head["s"])
    except ValueError as err:
        raise StreamFormatError(f"header describes no usable code: {err}") from err
    if length <= 0:
        raise StreamFormatError("header describes an empty frame")
    side, r = params.M, params.r
    rows = {"sc": 0, "ff": side * r, "pff": 2 * r * r}[family]
    if rows > MAX_SYSTEM_ROWS:
        raise StreamFormatError(
            f"header describes a {family} code whose construction solves a "
            f"{rows}-row system; streams are limited to {MAX_SYSTEM_ROWS} rows")
    if family == "sc":
        return length * side * side, length * side * (side - r)
    if family == "ff":
        return length * side * (side + r), length * side * side
    periods = length * (head["L"] + 1)
    return periods * side * side, periods * side * (side - r)


@gf2.memoize
def _stream_codec(family, m, t, L, s, length, seed, window, l_max):
    """The codec a stream header names, ``family`` as its ``FAMILY_CODES``
    value, set up to decode with ``window`` and ``l_max``.

    The codec is kept and shared by every later call with these arguments,
    so it is complete and read-only when ``build_codec`` returns it.
    """
    from .sim import build_codec

    return build_codec(FAMILY_NAMES[family], m, t, s, L=L, length=length,
                       window=window, l_max=l_max, seed=seed)


def read_stream(data, *, window=7, l_max=8):
    """Rebuild (codec, frame) from bytes produced by :func:`write_stream`.

    The header's sizes and the body length are checked first, so a stream
    that cannot be decoded costs no construction search and is not kept.
    The codec is kept per process for each header identity, ``window``
    and ``l_max`` while ``gf2.MEMO_BYTES`` allows, and every later stream
    with those shares it; it is read-only, and the frame is the caller's
    own.
    """
    head = parse_header(data)
    n_tx, payload_bits = _frame_geometry(head)
    if payload_bits != head["payload_bits"]:
        raise StreamFormatError(
            f"payload size mismatch: header says {head['payload_bits']}, "
            f"geometry gives {payload_bits}"
        )
    body = np.frombuffer(data[HEADER.size :], dtype=np.uint8)
    n_bytes = -(-n_tx // 8)
    if body.size < n_bytes:
        raise StreamFormatError("truncated stream body")
    if body.size > n_bytes:
        raise StreamFormatError(
            f"{body.size - n_bytes} trailing bytes after the stream body"
        )
    try:
        codec = _stream_codec(FAMILY_CODES[head["family"]],
                              *(head[name] for name in FIELDS[1:-1]),
                              window, l_max)
    except ValueError as err:  # includes gf2.SingularMatrixError
        raise StreamFormatError(f"header describes no usable code: {err}") from err
    if _header_fields(codec) != head or codec.n_tx != n_tx:
        raise StreamFormatError("header disagrees with the codec it names")
    return codec, codec.frame_from_bits(np.unpackbits(body, count=n_tx))

