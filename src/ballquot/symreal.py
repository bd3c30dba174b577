"""Exact real numbers of the form sum q * pi^a * sqrt(7)^b, and rational
enclosures of them.

Every quantity in the volume pipeline (zeta values, L-values, discriminant
powers) lives in the ring Q[pi, pi^-1, sqrt(7), sqrt(7)^-1].  Keeping these
symbolic lets the final covolume assert exact cancellation of all pi powers
instead of comparing floats.  `SymbolicReal.interval` encloses a value
between two `Fraction`s, from `pi_interval` and an integer square root;
`CycElt.interval` returns the same `Interval` type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt
from typing import Iterator, Mapping


class NotRational(ValueError):
    """Raised when a SymbolicReal is forced to a rational but carries pi or sqrt(7)."""


@dataclass(frozen=True)
class Interval:
    """The closed interval [a, b] with rational ends."""

    a: Fraction
    b: Fraction


@cache
def pi_interval(bits: int) -> Interval:
    """An enclosure of pi of width at most 2^-bits, from Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) in integers scaled by 2^w.  Term k of
    atan(1/x) is floor(2^w / ((2k+1) x^(2k+1))), off by less than one unit;
    each alternating series stops where that power reaches 0, so its next
    term, which bounds the remainder, is below one unit too."""
    w = bits + bits.bit_length() + 8  # so 2 * err < 8w + 96 <= 2^(w - bits)
    mid = err = 0
    for x, f in ((5, 16), (239, -4)):
        k, p = 0, (1 << w) // x
        while p:
            mid += f * (-1) ** k * (p // (2 * k + 1))
            k, p = k + 1, p // (x * x)
        err += abs(f) * (k + 1)
    return Interval(Fraction(mid - err, 1 << w), Fraction(mid + err, 1 << w))


def _normalize(terms: Mapping[tuple[int, int], Fraction]) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for (pi_pow, seven_half), coeff in terms.items():
        if coeff == 0:
            continue
        # Fold even powers of sqrt(7) into the rational coefficient so the
        # radical exponent is canonically 0 or 1.
        whole, rad = divmod(seven_half, 2)
        key = (pi_pow, rad)
        c = coeff * Fraction(7) ** whole
        new = out.get(key, Fraction(0)) + c
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


@dataclass(frozen=True)
class SymbolicReal:
    """Finite sum of terms q * pi^a * 7^(b/2), immutable and canonically reduced."""

    _terms: tuple[tuple[int, int, Fraction], ...]

    @staticmethod
    def from_terms(terms: Mapping[tuple[int, int], Fraction]) -> "SymbolicReal":
        norm = _normalize(terms)
        return SymbolicReal(tuple(sorted((p, s, c) for (p, s), c in norm.items())))

    @staticmethod
    def rational(q: Fraction | int) -> "SymbolicReal":
        return SymbolicReal.from_terms({(0, 0): Fraction(q)})

    @staticmethod
    def term(coeff: Fraction | int, pi_power: int = 0, seven_half_power: int = 0) -> "SymbolicReal":
        return SymbolicReal.from_terms({(pi_power, seven_half_power): Fraction(coeff)})

    def terms(self) -> Iterator[tuple[int, int, Fraction]]:
        return iter(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "SymbolicReal") -> "SymbolicReal":
        acc: dict[tuple[int, int], Fraction] = {(p, s): c for p, s, c in self._terms}
        for p, s, c in other._terms:
            acc[(p, s)] = acc.get((p, s), Fraction(0)) + c
        return SymbolicReal.from_terms(acc)

    def __neg__(self) -> "SymbolicReal":
        return SymbolicReal(tuple((p, s, -c) for p, s, c in self._terms))

    def __sub__(self, other: "SymbolicReal") -> "SymbolicReal":
        return self + (-other)

    def __mul__(self, other: "SymbolicReal") -> "SymbolicReal":
        acc: dict[tuple[int, int], Fraction] = {}
        for p1, s1, c1 in self._terms:
            for p2, s2, c2 in other._terms:
                key = (p1 + p2, s1 + s2)
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return SymbolicReal.from_terms(acc)

    def as_rational(self) -> Fraction:
        """Exact rational value; raises NotRational on any pi or sqrt(7) residue."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1:
            p, s, c = self._terms[0]
            if p == 0 and s == 0:
                return c
        raise NotRational(f"not a rational value: {self}")

    def interval(self) -> Interval:
        """An exact enclosure of the value, from `pi_interval(64)` and
        sqrt(7) between isqrt(7 * 4^64) / 2^64 and one unit more."""
        pi, r = pi_interval(64), isqrt(7 << 128)
        lo = hi = Fraction(0)
        for p, s, c in self._terms:
            x, y = sorted((pi.a ** p, pi.b ** p))  # pi^p is monotone in pi > 0
            if s:
                x, y = x * Fraction(r, 1 << 64), y * Fraction(r + 1, 1 << 64)
            lo, hi = lo + min(c * x, c * y), hi + max(c * x, c * y)
        return Interval(lo, hi)

    def to_float(self) -> float:
        """The float nearest the midpoint of `interval()`."""
        box = self.interval()
        return float((box.a + box.b) / 2)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for p, s, c in self._terms:
            factors = [str(c)]
            if p:
                factors.append(f"pi^{p}" if p != 1 else "pi")
            if s:
                factors.append("7^(1/2)")
            parts.append(" * ".join(factors))
        return " + ".join(parts)


ZERO = SymbolicReal.from_terms({})
ONE = SymbolicReal.rational(1)
PI = SymbolicReal.term(1, pi_power=1)
SQRT7 = SymbolicReal.term(1, seven_half_power=1)
