"""Exact dimension formula for spaces of automorphic forms on the 2-ball.

The dimension of the weight-k space is a finite sum over fixed-point
conjugacy classes.  Each class contributes its virtual Euler number times
j^k, divided by the class order and r+1, times a power-series coefficient
R(r, k).  Order-7 and order-3 rotation data mix exactly in Q(zeta_21).
Roots of unity are kept as exponents of zeta_21, and the weight k enters
only as the identity class's R(2, k) = C(3k-1, 2) and each isolated class's
j^k: R(0, k) is the same at every k.  So each dataset holds its own
weight-free form, built from its classes on the first `dimension` call: the
identity classes' total weight and, for each distinct j, the integer vector
of the weighted R(0) of the classes with that j, all over one denominator
(6 groups for X/Gamma, 7 for X/Gamma~, whose six order-3 classes all have
j = 1); each weight then costs one shift by jk and one add per group.  A
dataset checks its fields when it is built: a str label, a modulus n >= 1,
a tuple of classes, each of a valid shape and order, each j in 0..n-1 and
each eigenvalue exponent in 1..n-1.  A Galois conjugate is a new dataset
with its own form, built without those checks: a unit s mod n keeps each
exponent in 1..n-1.  No field inverse is taken: for w = zeta_n^e of order
m, (1 - w) * sum_{t<m} t w^t = -m gives 1/(1 - w) in closed form, so R(0, k)
is one product of two such elements.  The sum is tested for rationality first;
only a sum that is not rational is conjugated, to word the error.

The classes are built from each quotient's singular points
(`singularities.QUOTIENTS`): the identity class carries the quotient's Euler
height, and a point (n, q) gives n - 1 isolated classes of order n, the
powers t = 1..n-1 of its rotation diag(z, z^q), z a primitive n-th root of
unity: eigenvalues (z^t, z^(qt)) and j = z^(t(1+q)), their product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple

from . import singularities as sg
from . import Frozen, _require_int
from .cyclotomic import CycElt


class EigenvalueOne(ValueError):
    pass


class NotAnInteger(ValueError):
    pass


class FixedPointClass(NamedTuple):
    """`j` and `normal_eigenvalues` are exponents e of zeta_N^e, reduced mod N;
    checked by the `ClassDataset` that holds the class."""
    r: int
    virtual_euler: Fraction
    j: int
    m: int
    normal_eigenvalues: tuple[int, ...]


class ClassDataset(Frozen):
    """The fixed-point classes of one quotient, roots of unity as exponents
    of zeta_n, n = `cyclotomic_modulus`."""

    _fields = ("label", "cyclotomic_modulus", "classes")  # no __slots__, for cached_property

    def __init__(self, label: str, cyclotomic_modulus: int,
                 classes: tuple[FixedPointClass, ...]) -> None:
        """Check the fields: each class's shape (r = 0 with two eigenvalues, or
        r = 2 with none and j = 0), its order m >= 1, its j in 0..n-1 and its
        eigenvalue exponents in 1..n-1 (zeta_n^0 = 1 raises `EigenvalueOne`)."""
        if not isinstance(label, str):
            raise TypeError(f"the label must be a str, not {type(label).__name__}")
        _require_int(cyclotomic_modulus, "the cyclotomic modulus")
        n = cyclotomic_modulus
        if n < 1:
            raise ValueError(f"the cyclotomic modulus must be at least 1, got {n}")
        if not isinstance(classes, tuple):
            raise TypeError(f"the classes must be a tuple of FixedPointClass, got {classes!r:.80}")
        for c in classes:
            if not isinstance(c, FixedPointClass):
                raise TypeError(f"the classes must be a tuple of FixedPointClass, got {c!r:.80}")
            if c.r not in (0, 2):
                raise ValueError("fixed set dimension must be 0 or 2")
            if c.r == 2 and (c.normal_eigenvalues or c.j != 0):
                raise ValueError("a 2-dimensional fixed set has no normal data and j = 1")
            if c.r == 0 and len(c.normal_eigenvalues) != 2:
                raise ValueError("an isolated fixed point carries exactly 2 eigenvalues")
            if c.m < 1:
                raise ValueError("class order must be positive")
            if not 0 <= c.j < n:
                raise ValueError(f"j = {c.j} is not an exponent of zeta_{n} in 0..{n - 1}")
            for e in c.normal_eigenvalues:
                if not 0 < e < n:
                    if e % n == 0:
                        raise EigenvalueOne("normal eigenvalue 1 makes R undefined")
                    raise ValueError(f"eigenvalue exponent {e} is not reduced to 1..{n - 1}")
        super().__init__(label, n, classes)

    def conjugated(self, s: int) -> "ClassDataset":
        """Apply zeta -> zeta^s to every root of unity in the dataset, with no
        check made again (module docstring)."""
        _require_int(s, "the Galois exponent s")
        n = self.cyclotomic_modulus
        if math.gcd(s, n) != 1:
            raise ValueError("s must be coprime to the modulus")
        out = []
        for r, w, j, m, eigenvalues in self.classes:
            eigenvalues = tuple([e * s % n for e in eigenvalues])
            # tuple.__new__ for speed: FixedPointClass(...) and _make each add a Python call
            out.append(tuple.__new__(FixedPointClass, (r, w, j * s % n, m, eigenvalues)))
        conjugate = object.__new__(ClassDataset)  # the classes of valid data, not checked again
        Frozen.__init__(conjugate, self.label, n, tuple(out))
        return conjugate

    @cached_property
    def _weight_free_sum(self) -> tuple[int, int, tuple[tuple[int, tuple], ...]]:
        """The class sum with the weight taken out, over one denominator den:
        (den, the identity classes' total weight e/(3m) times den, and for each
        distinct j the n integers of Z[C_n] of den * sum w R(0) over the
        isolated classes with that j, w = e/m, written twice over)."""
        n = self.cyclotomic_modulus
        # w R(0) = wn * R.num / wd; R(0) is the same at every k, so any weight in scope reads it
        terms = []
        for c in self.classes:
            R = None if c.r == 2 else R_coefficient(0, 2, n, c.normal_eigenvalues)
            wd = c.virtual_euler.denominator * c.m * (c.r + 1) * (1 if R is None else R.den)
            terms.append((c.j, c.virtual_euler.numerator, wd, R))
        den = math.lcm(*(wd for _, _, wd, _ in terms))
        identity, groups = 0, {}
        for j, wn, wd, R in terms:
            scale = wn * (den // wd)
            if R is None:
                identity += scale
                continue
            acc = groups.setdefault(j, [0] * n)
            for i, a in enumerate(R.num):
                acc[i] += scale * a
        return den, identity, tuple((j, tuple(acc) * 2) for j, acc in groups.items())


def _inverse_of_one_minus(n: int, e: int) -> CycElt:
    """1/(1 - w) for w = zeta_n^e of order m = n/gcd(e, n) > 1: from
    (1 - w) * sum_{t<m} t w^t = -m, the vector -t at e*t mod n over m."""
    m = n // math.gcd(e, n)
    if m == 1:
        raise EigenvalueOne("normal eigenvalue 1 makes R undefined")
    acc = [0] * n
    for t in range(1, m):
        acc[e * t % n] = -t
    return CycElt.from_group_ring(n, acc, m)


@cache
def _isolated_coefficient(n: int, a: int, b: int) -> CycElt:
    """1/((1 - zeta_n^a)(1 - zeta_n^b)), one field product of two closed
    forms; at most n^2 entries per modulus."""
    return _inverse_of_one_minus(n, a) * _inverse_of_one_minus(n, b)


def _identity_coefficient(k: int) -> int:
    """R(2, k) = C(3k-1, 2), the coefficient of z^2 in (1-z)^{3k-1}: an integer."""
    return math.comb(3 * k - 1, 2)


def R_coefficient(r: int, k: int, n: int, normal_eigenvalues: tuple[int, ...] = ()) -> CycElt:
    """Coefficient of z^r in (1-z)^{3k-1} * prod 1/(1 - nu_i + nu_i z), nu_i =
    zeta_n^e_i; for r = 0 it is prod 1/(1 - nu_i), the same at every k."""
    if r == 2:
        return CycElt.rational(n, _identity_coefficient(k))
    return _isolated_coefficient(n, *normal_eigenvalues)


def dimension(dataset: ClassDataset, k: int) -> int:
    """Exact class sum for the weight-k dimension; must come out a
    nonnegative rational integer."""
    _require_int(k, "the weight k")
    if k < 2:
        raise ValueError("weights below 2 are out of scope")
    n = dataset.cyclotomic_modulus
    den, identity, groups = dataset._weight_free_sum
    # zeta^(jk) moves entry i of a vector of Z[C_n] to i + jk mod n (x^n = 1):
    # each group's vector v is stored twice over, and v + v from n - jk on is v shifted
    acc = list(map(sum, zip(*[vv[s:s + n] for j, vv in groups for s in (-j * k % n,)])))
    acc = acc or [0] * n  # a dataset with no isolated class
    acc[0] += _identity_coefficient(k) * identity
    total = CycElt.from_group_ring(n, acc, den)
    if not total.is_rational():  # a rational sum is real: conjugate only to word the error
        kind = "real" if total != total.conjugate() else "rational"
        raise NotAnInteger(f"class sum {total} is not {kind}")
    if total.den != 1 or total.num[0] < 0:  # canonical: the rational num[0]/den is in lowest terms
        raise NotAnInteger(f"class sum {total.as_rational()} is not a nonnegative integer")
    return total.num[0]


# ---------------------------------------------------------------------------
# the class data of each quotient

def _dataset(label: str) -> ClassDataset:
    """The classes of the module docstring, in exponents of zeta_21: z = zeta_21^(21/n)."""
    n = 21
    x = sg.QUOTIENTS[label]
    classes = [FixedPointClass(2, sg.euler_height(x), 0, 1, ())]
    for p in x.points:
        step = n // p.n
        classes += (FixedPointClass(0, Fraction(1), t * (1 + p.q) * step % n, p.n,
                                    (t * step % n, p.q * t * step % n))
                    for t in range(1, p.n))
    return ClassDataset(label, n, tuple(classes))


def build_gamma_dataset() -> ClassDataset:
    return _dataset("gamma")


def build_gamma_tilde_dataset() -> ClassDataset:
    return _dataset("gamma_tilde")
