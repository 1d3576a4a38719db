"""
On-disk formats: framed bit streams and construction caches.

A stream is a 20-byte little-endian header followed by the frame's
transmitted bits in buffer order (blocks, then per-pair FF redundancy),
packed 8 bits per byte:

    magic 'SFC1' | family u8 | m u8 | t u8 | L u8 |
    s u16 | length u16 | seed u32 | payload_bits u32

``length`` counts blocks for sc/ff and periods for pff; ``seed`` is the
construction-search seed, which fixes the permutations and must match
between encoder and decoder.

A construction cache is an .npz holding a JSON descriptor plus the
permutations and inverted system matrices; the loader rebuilds the system
matrix from the permutations and re-verifies the stored inverse before
trusting it.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from . import gf2
from .bch import ComponentCode
from .ff import FFConstruction, build_a_matrix
from .parameters import family_params
from .pff import PFFConstruction, build_b_matrix

__all__ = [
    "StreamFormatError",
    "FAMILY_CODES",
    "write_stream",
    "read_stream",
    "save_construction",
    "load_construction",
]

MAGIC = b"SFC1"
HEADER = struct.Struct("<4sBBBBHHII")
FAMILY_CODES = {"sc": 0, "ff": 1, "pff": 2}
FAMILY_NAMES = {v: k for k, v in FAMILY_CODES.items()}


class StreamFormatError(ValueError):
    """Malformed or inconsistent stream/cache contents."""


def write_stream(codec, frame, *, seed=0):
    """Serialize a frame to bytes."""
    desc = codec.describe()
    fields = {
        "family": FAMILY_CODES[codec.family],
        "m": desc["code"]["m"],
        "t": desc["code"]["t"],
        "L": desc.get("L", 0),
        "s": desc["code"]["s"],
        "length": desc.get("n_periods", desc.get("n_blocks", 0)),
        "seed": seed,
        "payload_bits": codec.payload_bits,
    }
    for (name, value), code in zip(fields.items(), HEADER.format[3:]):
        if not 0 <= value < 256 ** struct.calcsize(code):
            raise ValueError(f"{name} = {value} does not fit the stream header")
    body = np.packbits(frame.buf[:-1]).tobytes()
    return HEADER.pack(MAGIC, *fields.values()) + body


def parse_header(data):
    if len(data) < HEADER.size:
        raise StreamFormatError("truncated header")
    magic, fam, m, t, L, s, length, seed, payload_bits = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}")
    if fam not in FAMILY_NAMES:
        raise StreamFormatError(f"unknown family code {fam}")
    return {
        "family": FAMILY_NAMES[fam],
        "m": m,
        "t": t,
        "L": L,
        "s": s,
        "length": length,
        "seed": seed,
        "payload_bits": payload_bits,
    }


def _frame_geometry(head):
    """``(n_tx, payload_bits)`` of the frame a parsed header describes.

    Arithmetic on the header fields, so that a stream's sizes are checked
    before any code is constructed.
    """
    family, length = head["family"], head["length"]
    try:
        params = family_params(family, head["m"], head["t"], head["s"])
    except ValueError as err:
        raise StreamFormatError(f"header describes no usable code: {err}") from err
    if length <= 0:
        raise StreamFormatError("header describes an empty frame")
    side, r = params.M, params.r
    if family == "sc":
        return length * side * side, length * side * (side - r)
    if family == "ff":
        return length * side * (side + r), length * side * side
    periods = length * (head["L"] + 1)
    return periods * side * side, periods * side * (side - r)


def read_stream(data, *, window=7, l_max=8):
    """Rebuild (codec, frame) from bytes produced by :func:`write_stream`.

    The header's sizes and the body length are checked first, so a stream
    that cannot be decoded costs no construction search.
    """
    from .sim import build_codec

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
    kwargs = dict(length=head["length"], window=window, l_max=l_max,
                  seed=head["seed"])
    if head["family"] == "pff":
        kwargs["L"] = head["L"]
    try:
        codec = build_codec(head["family"], head["m"], head["t"], head["s"],
                            **kwargs)
    except ValueError as err:  # includes gf2.SingularMatrixError
        raise StreamFormatError(f"header describes no usable code: {err}") from err
    if (codec.n_tx, codec.payload_bits) != (n_tx, payload_bits):
        raise StreamFormatError("header geometry disagrees with its code")
    return codec, codec.frame_from_bits(np.unpackbits(body, count=n_tx))


# -- construction caches ------------------------------------------------------


def save_construction(cons, path):
    """Write an FF or PFF construction cache."""
    if isinstance(cons, FFConstruction):
        meta = {
            "kind": "ff",
            "mode": cons.mode,
            "code": cons.code_row.descriptor(),
        }
        np.savez_compressed(
            path, meta=json.dumps(meta), pi1=cons.pi1, pi2=cons.pi2,
            a_inv=np.packbits(cons.a_inv, axis=1),
        )
    elif isinstance(cons, PFFConstruction):
        meta = {
            "kind": "pff",
            "mode": cons.mode,
            "code": cons.code_row.descriptor(),
        }
        np.savez_compressed(
            path, meta=json.dumps(meta), pi=cons.pi,
            a_inv=np.packbits(cons.a_inv, axis=1),
            b_inv=np.packbits(cons.b_inv, axis=1),
        )
    else:
        raise TypeError("only FF/PFF constructions are cached")


def _unpack_square(packed, n):
    return np.unpackbits(packed, axis=1, count=n)


def load_construction(path):
    """Load a cache, rebuilding codes and re-verifying the inverses."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        code_desc = meta["code"]
        code_row = ComponentCode(
            code_desc["m"], code_desc["t"], code_desc["s"],
            primitive_poly=int(code_desc["primitive_poly"], 16),
        )
        code_col = ComponentCode(
            code_desc["m"], code_desc["t"], code_desc["s"],
            role="col", reciprocal=True, field=code_row.field,
        )
        part_row = code_row.parity_partition()
        part_col = code_col.parity_partition()
        m_side = (code_row.k - code_row.r) // 2
        r = code_row.r
        if meta["kind"] == "ff":
            pi1, pi2 = data["pi1"], data["pi2"]
            a_inv = _unpack_square(data["a_inv"], m_side * r)
            a = build_a_matrix(m_side, r, part_row.g_r, part_col.g_r, pi1, pi2)
            if not (gf2.mat_mul(a, a_inv) == gf2.identity(m_side * r)).all():
                raise StreamFormatError("cached FF inverse fails verification")
            return FFConstruction(
                code_row=code_row, code_col=code_col, m_side=m_side, r=r,
                pi1=pi1, pi2=pi2, a_inv=a_inv,
                g_i=part_row.g_i, g_r=part_row.g_r,
                f_i=part_col.g_i, f_r=part_col.g_r, mode=meta["mode"],
            )
        if meta["kind"] == "pff":
            pi = data["pi"]
            a_small = part_row.g_r.T ^ part_col.g_r.T
            a_inv = _unpack_square(data["a_inv"], r)
            b_inv = _unpack_square(data["b_inv"], 2 * r * r)
            if not (gf2.mat_mul(a_small, a_inv) == gf2.identity(r)).all():
                raise StreamFormatError("cached stage-1 inverse fails verification")
            g_b_t = part_row.g_i[m_side - 2 * r : m_side][np.asarray(pi)]
            b = build_b_matrix(r, a_small, g_b_t, part_col.g_r)
            if not (gf2.mat_mul(b, b_inv) == gf2.identity(2 * r * r)).all():
                raise StreamFormatError("cached stage-2 inverse fails verification")
            return PFFConstruction(
                code_row=code_row, code_col=code_col, m_side=m_side, r=r,
                pi=pi, a_small=a_small, a_inv=a_inv, b_inv=b_inv,
                g_i=part_row.g_i, g_r=part_row.g_r,
                f_i=part_col.g_i, f_r=part_col.g_r,
                gp_std=code_row.g_p[2 * r :], mode=meta["mode"],
            )
        raise StreamFormatError(f"unknown cache kind {meta['kind']!r}")
