"""
Code-family parameter derivation from (m, t, s).

Given the extension degree m, decoding radius t and shortening s, every
derived quantity (n, k, r, block side M, rate, overhead) follows from
n = 2^m - 1 - s and k = n - m*t.  Rates are exact fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .galois import DEFAULT_PRIMITIVE_POLYS

__all__ = ["FamilyParams", "family_params", "FAMILIES"]

FAMILIES = ("sc", "ff", "pff")


@dataclass(frozen=True)
class FamilyParams:
    family: str
    m: int
    t: int
    s: int
    n: int
    k: int
    r: int
    M: int
    rate: Fraction

    @property
    def overhead_pct(self):
        return float((1 / self.rate - 1) * 100)

    def as_dict(self):
        return {
            "family": self.family,
            "m": self.m,
            "t": self.t,
            "s": self.s,
            "n": self.n,
            "k": self.k,
            "r": self.r,
            "M": self.M,
            "R": f"{self.rate.numerator}/{self.rate.denominator}",
            "OH_pct": round(self.overhead_pct, 4),
        }


def family_params(family, m, t, s):
    """Derive (n, k, r, M, R, OH) for one code family.

    Raises ValueError for parameter combinations the family cannot use
    (m outside ``galois.DEFAULT_PRIMITIVE_POLYS``, odd n for staircase, k/r
    parity mismatch or 2r >= M for FF, M <= 2r or non-positive rate for PFF).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if m not in DEFAULT_PRIMITIVE_POLYS:
        raise ValueError(f"no field of degree m = {m}")
    n = (1 << m) - 1 - s
    r = m * t
    k = n - r
    if k <= 0:
        raise ValueError("no information bits left after parity")
    rc = Fraction(k, n)

    if family == "sc":
        if n % 2:
            raise ValueError("staircase codes need even n; adjust s")
        big_m = n // 2
        rate = 2 * rc - 1
        if rate <= 0:
            raise ValueError("staircase rate requires R_c > 1/2")
        if big_m <= r:
            raise ValueError("block side must exceed r")
        return FamilyParams(family, m, t, s, n, k, r, big_m, rate)

    if (k - r) % 2:
        raise ValueError("k and r must have the same parity; adjust s")
    big_m = (k - r) // 2
    if big_m <= 0:
        raise ValueError("block side must be positive")

    if family == "ff":
        rate = 2 * rc - 1
        if rate <= 0:
            raise ValueError("FF rate requires R_c > 1/2")
        if 2 * r >= big_m:
            raise ValueError(
                "low-error-floor permutations need 2r < M (rate above 1/2)"
            )
        return FamilyParams(family, m, t, s, n, k, r, big_m, rate)

    # pff
    rate = 1 - Fraction(r, big_m)
    if big_m <= 2 * r:
        raise ValueError("PFF needs M > 2r (component rate above 3/4)")
    if rate <= 0:
        raise ValueError("non-positive PFF rate")
    return FamilyParams(family, m, t, s, n, k, r, big_m, rate)
