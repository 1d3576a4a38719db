"""``floors.certify_stall`` decodes a pattern alone, in a zero frame, as Monte
Carlo decodes a frame's noise; ``reference.certify_stall`` encodes a payload,
applies the pattern and decodes the whole frame.  By linearity the two agree
for every payload: these tests pin that on generated stall candidates (both
certified and not), the same candidates with their last entry dropped and
with one random entry appended, random sets of six bits and patterns with
a repeated entry, for the toy codes of test_floors.py and the benchmark's
three codes."""

import numpy as np
import pytest

import reference
from stairfec import floors
from stairfec.bch import ComponentCode
from stairfec.ff import FFCode, search_construction
from stairfec.floors import StallPattern, certify_stall, gen_stall
from stairfec.pff import PFFCode, search_pff_construction
from stairfec.sim import build_codec
from stairfec.staircase import StaircaseCode


CODECS = {
    # the toy codes of test_floors.py
    "sc-toy": lambda: StaircaseCode(ComponentCode(5, 2, 1), 6, window=4,
                                    l_max=6),
    "ff-toy": lambda: FFCode(search_construction(7, 2, 27, seed=0), 4,
                             window=4, l_max=6),
    "pff-toy": lambda: PFFCode(search_pff_construction(7, 2, 41, seed=0), 2,
                               3, window=6, l_max=6),
    # the benchmark's codes (perfbench/workloads.py)
    "sc": lambda: build_codec("sc", 8, 3, 63, length=8),
    "ff": lambda: build_codec("ff", 8, 3, 63, length=8),
    "pff": lambda: build_codec("pff", 8, 3, 15, L=2, length=3),
}
GENERATORS = {"sc": floors._gen_sc_candidate, "ff": floors._gen_ff_candidate,
              "pff": floors._gen_pff_candidate}


def _patterns(codec, count, rng):
    generated = []
    while len(generated) < count:
        pattern = GENERATORS[codec.family](codec, rng)
        if pattern is not None:
            generated.append(pattern)
    truncated = [StallPattern(p.family, p.entries[:-1]) for p in generated]
    # not minimal when the stall held: only dropping the last entry fails
    extended = [StallPattern(p.family, p.entries + (int(rng.integers(
        codec.n_tx)),)) for p in generated]
    random = [StallPattern(codec.family, tuple(
        int(e) for e in rng.choice(codec.n_tx, size=6, replace=False)))
        for _ in range(count)]
    return generated + truncated + extended + random


@pytest.mark.parametrize("name", sorted(CODECS))
def test_certificate_equals_the_encoded_frame_oracle(name):
    codec = CODECS[name]()
    rng = np.random.default_rng(5)
    payload = rng.integers(0, 2, codec.payload_bits, dtype=np.uint8)
    seen = set()
    for i, pattern in enumerate(_patterns(codec, 8, rng)):
        got = certify_stall(codec, pattern)
        # every other pattern against the default all-zero payload
        want = reference.certify_stall(codec, pattern,
                                       None if i % 2 else payload)
        assert got == want, (name, i, pattern.entries)
        assert all(type(v) is bool for v in got)
        seen.add(got)
    # the patterns reach more than one outcome, certified stalls among them
    assert (True, True) in seen and len(seen) > 1


def test_a_repeated_entry_cancels_as_in_apply_stall():
    codec = CODECS["sc-toy"]()
    entries = gen_stall(codec, seed=1).entries
    x, b = entries[0], entries[1]
    cases = {
        # entry 0 cancels: the stall less one entry decodes to zero, and
        # dropping one copy of it applies the whole stall
        entries + (x,): (False, False),
        (x,) + entries: (False, False),
        # one error, x and b, or two x that cancel: each decodes to zero
        (x, x, b): (False, True),
    }
    for doubled, want in cases.items():
        repeated = StallPattern("sc", doubled)
        assert certify_stall(codec, repeated) == want
        assert reference.certify_stall(codec, repeated) == want


@pytest.mark.parametrize("name", ["sc-toy", "ff-toy", "pff-toy"])
def test_gen_stall_equals_gen_stall_with_the_oracle(name, monkeypatch):
    codec = CODECS[name]()
    got = [gen_stall(codec, seed=seed) for seed in range(3)]
    monkeypatch.setattr(floors, "certify_stall", reference.certify_stall)
    assert got == [gen_stall(codec, seed=seed) for seed in range(3)]
