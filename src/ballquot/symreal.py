"""Exact real numbers of the form q * pi^a * 7^(b/2), and rational enclosures
of them.

Every quantity in the volume pipeline (zeta values, L-values, discriminant
powers, local factors) is one such monomial, and so is every product of
them.  Keeping them symbolic lets the final covolume assert exact
cancellation of all pi powers instead of comparing floats.
`SymbolicReal.interval` encloses a value between two `Fraction`s, from
`pi_interval` and an integer square root; `CycElt.interval` returns the same
`Interval` type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt
from typing import NamedTuple

from . import Frozen


class NotRational(ValueError):
    """Raised when a SymbolicReal is forced to a rational but carries pi or sqrt(7)."""


def exact(c) -> Fraction:
    """c as a Fraction, refusing anything but an int or a Fraction (a bool or
    a float included), so no input switches the arithmetic to floats."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"exact values must be int or Fraction, not {type(c).__name__}")
    return Fraction(c)


class Interval(NamedTuple):
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


class SymbolicReal(Frozen):
    """The monomial coeff * pi^pi_power * 7^(root/2), with root 0 or 1: even
    powers of sqrt(7) fold into the coefficient, and zero is (0, 0, 0).  The
    constructor refuses any other record, so equal values are equal records."""

    __slots__ = _fields = ("coeff", "pi_power", "root")  # Fraction, int, int

    def __init__(self, coeff: Fraction, pi_power: int, root: int) -> None:
        if not (type(coeff) is Fraction and type(pi_power) is type(root) is int
                and root in (0, 1) and (coeff or not (pi_power or root))):
            raise ValueError(f"not a canonical monomial: {coeff!r}, {pi_power!r}, {root!r}")
        super().__init__(coeff, pi_power, root)

    @staticmethod
    def rational(q: Fraction | int) -> "SymbolicReal":
        return SymbolicReal.term(q)

    @staticmethod
    def term(coeff: Fraction | int, pi_power: int = 0, seven_half_power: int = 0) -> "SymbolicReal":
        coeff = exact(coeff)
        if not coeff:
            return SymbolicReal(coeff, 0, 0)
        whole, root = divmod(seven_half_power, 2)
        return SymbolicReal(coeff * Fraction(7) ** whole, pi_power, root)

    def __mul__(self, other: "SymbolicReal") -> "SymbolicReal":
        if not isinstance(other, SymbolicReal):
            return NotImplemented
        return SymbolicReal.term(self.coeff * other.coeff, self.pi_power + other.pi_power,
                                 self.root + other.root)

    def as_rational(self) -> Fraction:
        """Exact rational value; raises NotRational on any pi or sqrt(7) residue."""
        if self.pi_power or self.root:
            raise NotRational(f"not a rational value: {self}")
        return self.coeff

    def interval(self) -> Interval:
        """An exact enclosure of the value, from `pi_interval(64)` and
        sqrt(7) between isqrt(7 * 4^64) / 2^64 and one unit more."""
        pi, c = pi_interval(64), self.coeff
        x, y = sorted((pi.a ** self.pi_power, pi.b ** self.pi_power))  # monotone in pi > 0
        if self.root:
            r = isqrt(7 << 128)
            x, y = x * Fraction(r, 1 << 64), y * Fraction(r + 1, 1 << 64)
        return Interval(min(c * x, c * y), max(c * x, c * y))

    def to_float(self) -> float:
        """The float nearest the midpoint of `interval()`."""
        box = self.interval()
        return float((box.a + box.b) / 2)

    def __str__(self) -> str:
        factors = [str(self.coeff)]
        if self.pi_power:
            factors.append("pi" if self.pi_power == 1 else f"pi^{self.pi_power}")
        if self.root:
            factors.append("7^(1/2)")
        return " * ".join(factors)


ONE = SymbolicReal.rational(1)
PI = SymbolicReal.term(1, pi_power=1)
SQRT7 = SymbolicReal.term(1, seven_half_power=1)
