"""Exact dimension formula for spaces of automorphic forms on the 2-ball.

The dimension of the weight-k space is a finite sum over fixed-point
conjugacy classes.  Each class contributes its virtual Euler number times
j^k, divided by the class order and r+1, times a power-series coefficient
R(r, k).  Order-7 and order-3 rotation data mix exactly in Q(zeta_21).
Roots of unity are kept as exponents of zeta_21: j^k is one lookup, and
R(0, k), the same at every k, is computed once per pair of eigenvalues.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from . import read_data, validated
from .cyclotomic import CycElt


class EigenvalueOne(ValueError):
    pass


class NotAnInteger(ValueError):
    pass


@validated
class FixedPointClass(NamedTuple):
    """`j` and `normal_eigenvalues` are exponents e of zeta_N^e, reduced mod N."""
    r: int
    virtual_euler: Fraction
    j: int
    m: int
    normal_eigenvalues: tuple[int, ...]

    def __post_init__(self):
        if self.r not in (0, 2):
            raise ValueError("fixed set dimension must be 0 or 2")
        if self.r == 2 and (self.normal_eigenvalues or self.j != 0):
            raise ValueError("a 2-dimensional fixed set has no normal data and j = 1")
        if self.r == 0 and len(self.normal_eigenvalues) != 2:
            raise ValueError("an isolated fixed point carries exactly 2 eigenvalues")
        if 0 in self.normal_eigenvalues:
            raise EigenvalueOne("normal eigenvalue 1 makes R undefined")
        if self.m < 1:
            raise ValueError("class order must be positive")


class ClassDataset(NamedTuple):
    label: str
    cyclotomic_modulus: int
    classes: tuple[FixedPointClass, ...]

    def conjugated(self, s: int) -> "ClassDataset":
        """Apply zeta -> zeta^s to every root of unity in the dataset."""
        n = self.cyclotomic_modulus
        if math.gcd(s, n) != 1:
            raise ValueError("s must be coprime to the modulus")
        out = tuple(
            FixedPointClass(c.r, c.virtual_euler, c.j * s % n, c.m,
                            tuple(e * s % n for e in c.normal_eigenvalues))
            for c in self.classes)
        return ClassDataset(self.label, n, out)


@cache
def _isolated_coefficient(n: int, a: int, b: int) -> CycElt:
    """1/((1 - zeta_n^a)(1 - zeta_n^b)); at most n^2 entries per modulus."""
    one = CycElt.one(n)
    return ((one - CycElt.zeta(n, a)) * (one - CycElt.zeta(n, b))).inverse()


def R_coefficient(r: int, k: int, n: int, normal_eigenvalues: tuple[int, ...] = ()) -> CycElt:
    """Coefficient of z^r in (1-z)^{3k-1} * prod 1/(1 - nu_i + nu_i z), nu_i =
    zeta_n^e_i; for r = 0 it is prod 1/(1 - nu_i), the same at every k."""
    if r == 2:
        return CycElt.rational(n, Fraction(math.comb(3 * k - 1, 2)))
    return _isolated_coefficient(n, *normal_eigenvalues)


def dimension(dataset: ClassDataset, k: int) -> int:
    """Exact class sum for the weight-k dimension; must come out a
    nonnegative rational integer."""
    if k < 2:
        raise ValueError("weights below 2 are out of scope")
    n = dataset.cyclotomic_modulus
    # w zeta^(jk) R is R's numerators shifted by jk (x^n = 1): add up integers over one den
    acc, den = [0] * n, 1
    for c in dataset.classes:
        coeff = R_coefficient(c.r, k, n, c.normal_eigenvalues)
        w = Fraction(c.virtual_euler, c.m * (c.r + 1) * coeff.den)
        grow = w.denominator // math.gcd(den, w.denominator)
        acc, den = [a * grow for a in acc], den * grow
        scale = w.numerator * (den // w.denominator)
        for i, a in enumerate(coeff.num, c.j * k):
            acc[i % n] += scale * a
    total = CycElt.from_poly(n, acc) * Fraction(1, den)
    if total != total.conjugate():
        raise NotAnInteger(f"class sum {total} is not real")
    if not total.is_rational():
        raise NotAnInteger(f"class sum {total} is not rational")
    val = total.as_rational()
    if val.denominator != 1 or val < 0:
        raise NotAnInteger(f"class sum {val} is not a nonnegative integer")
    return int(val)


# ---------------------------------------------------------------------------
# dataset fixtures

def _exponent(spec: list, n: int) -> int:
    mod, e = spec
    if mod != n:
        raise ValueError("dataset root of unity modulus mismatch")
    return e % n


def _load(name: str) -> ClassDataset:
    raw = json.loads(read_data(name))
    n = raw["cyclotomic_modulus"]
    classes = tuple(
        FixedPointClass(
            r=c["r"],
            virtual_euler=Fraction(c["virtual_euler"]),
            j=_exponent(c["j"], n),
            m=c["m"],
            normal_eigenvalues=tuple(_exponent(e, n) for e in c["normal_eigenvalues"]),
        )
        for c in raw["classes"])
    return ClassDataset(raw["label"], n, classes)


def build_gamma_dataset() -> ClassDataset:
    return _load("classes_gamma.json")


def build_gamma_tilde_dataset() -> ClassDataset:
    return _load("classes_gamma_tilde.json")
