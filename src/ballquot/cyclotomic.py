"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored as integer numerators over one common denominator in
the power basis zeta^0 .. zeta^(d-1), d = phi(N):

    (num[0] + num[1]*zeta + ... + num[d-1]*zeta^(d-1)) / den

always in canonical form: den > 0 and gcd(num[0], ..., num[d-1], den) = 1,
so zero is all zeros over 1.  The power basis is an integral basis of
Z[zeta_N], so every element has exactly one such form, and `==` and `hash`
compare the integers directly.  `coeffs` is a cached view of the same
element as a tuple of `Fraction`s.

Products are integer schoolbook products reduced through a table of
x^k mod Phi_N; Galois maps apply a table of zeta^(i*k) mod Phi_N; inverses
are the product of the other Galois conjugates over the rational norm.  The
tables are built on first use, once per modulus (and exponent).  The sign of
a real element is exact: `interval` encloses its value between two
`Fraction`s, from cosine series in scaled integers and `symreal.pi_interval`.

N = 7 carries the core field L = Q(zeta_7) with its quadratic subfield
K = Q(sqrt(-7)); N = 21 is used for mixed order-3/order-7 fixed point data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lcm

from .symreal import Interval, pi_interval


class DivisionByZero(ZeroDivisionError):
    pass


# ---------------------------------------------------------------------------
# integer tables, one per modulus

@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first: x^n - 1 divided by Phi_d
    for every proper divisor d of n."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            b = cyclotomic_polynomial(d)
            m = len(b) - 1
            q = [0] * (len(p) - m)
            for k in range(len(q) - 1, -1, -1):  # b is monic
                c = q[k] = p[k + m]
                if c:
                    for i, bi in enumerate(b):
                        p[k + i] -= c * bi
            assert not any(p), "inexact division by a cyclotomic factor"
            p = q
    return tuple(p)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k (0 <= k < n) holds the integer coordinates of x^k mod Phi_n.

    x^n = 1 modulo Phi_n, so x^k for any k >= 0 is row k mod n."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    row = [1] + [0] * (d - 1)
    rows = []
    for _ in range(n):
        rows.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:  # x^d = -(phi_0 + ... + phi_(d-1) x^(d-1))
            row = [r - top * c for r, c in zip(row, phi)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _galois_table(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds the integer coordinates of zeta^(i*k) mod Phi_n."""
    powers = _power_table(n)
    return tuple(powers[(i * k) % n] for i in range(euler_phi(n)))


@lru_cache(maxsize=None)
def _norm_tower(n: int) -> tuple[tuple[int, int], ...]:
    """Steps (g, m) that build (Z/n)^x from {1}: g has prime order m modulo
    the subgroup built by the steps before it."""
    units = [k for k in range(1, n) if gcd(k, n) == 1]
    group = {1}
    steps = []
    while len(group) < len(units):
        best = None
        for g in units:
            m, p = 1, g
            while p not in group:
                p, m = p * g % n, m + 1
            if m > 1 and (best is None or m < best[1]):
                best = (g, m)
        g, m = best
        group = {h * pow(g, i, n) % n for h in group for i in range(m)}
        steps.append((g, m))
    return tuple(steps)


def _exact(c) -> Fraction:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"cyclotomic coefficients must be int or Fraction, not {type(c).__name__}")
    return Fraction(c)


def _over_common_denominator(coeffs) -> tuple[list[int], int]:
    """Integer numerators over the least positive common denominator."""
    coeffs = [_exact(c) for c in coeffs]
    den = lcm(1, *(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _reduce(n: int, num: list[int]) -> tuple[int, ...]:
    """Integer coordinates of sum num[k] x^k modulo Phi_n."""
    d = euler_phi(n)
    if len(num) <= d:
        return tuple(num) + (0,) * (d - len(num))
    out = [0] * n
    for k, c in enumerate(num):
        out[k % n] += c
    powers = _power_table(n)
    for k in range(d, n):
        c = out[k]
        if c:
            for i, t in enumerate(powers[k]):
                if t:
                    out[i] += c * t
    return tuple(out[:d])


# ---------------------------------------------------------------------------

class CycElt:
    """Element of Q(zeta_N): integer numerators `num` over `den`, canonical."""

    __slots__ = ("modulus", "num", "den", "_coeffs")

    def __init__(self, modulus: int, coeffs) -> None:
        num, den = _over_common_denominator(coeffs)
        if len(num) != euler_phi(modulus):
            raise ValueError(f"Q(zeta_{modulus}) needs {euler_phi(modulus)} coefficients, "
                             f"got {len(num)}")
        self._set(modulus, num, den)

    @classmethod
    def _make(cls, n: int, num, den: int = 1) -> "CycElt":
        """The element num/den from integers, den > 0, in canonical form."""
        self = object.__new__(cls)
        self._set(n, num, den)
        return self

    def _set(self, n: int, num, den: int) -> None:
        num = tuple(num)
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
        setter = object.__setattr__
        setter(self, "modulus", n)
        setter(self, "num", num)
        setter(self, "den", den)
        setter(self, "_coeffs", None)

    def __setattr__(self, name, value):
        raise AttributeError("CycElt is immutable")

    def __delattr__(self, name):
        raise AttributeError("CycElt is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in the power basis, as Fractions."""
        c = self._coeffs
        if c is None:
            c = tuple(Fraction(a, self.den) for a in self.num)
            object.__setattr__(self, "_coeffs", c)
        return c

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycElt):
            return NotImplemented
        return (self.modulus == other.modulus and self.den == other.den
                and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.modulus, self.num, self.den))

    def __repr__(self) -> str:
        return f"CycElt(modulus={self.modulus}, coeffs={self.coeffs!r})"

    # -- constructors

    @staticmethod
    def from_poly(n: int, poly) -> "CycElt":
        """The value of a polynomial (int or Fraction coefficients) at zeta_n."""
        num, den = _over_common_denominator(poly)
        return CycElt._make(n, _reduce(n, num), den)

    @staticmethod
    def zero(n: int) -> "CycElt":
        return CycElt._make(n, (0,) * euler_phi(n))

    @staticmethod
    def one(n: int) -> "CycElt":
        return CycElt.rational(n, 1)

    @staticmethod
    def rational(n: int, q: Fraction | int) -> "CycElt":
        q = _exact(q)
        return CycElt._make(n, (q.numerator,) + (0,) * (euler_phi(n) - 1), q.denominator)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycElt":
        return CycElt._make(n, _power_table(n)[power % n])

    # -- ring/field structure

    def _check(self, other: "CycElt") -> None:
        if self.modulus != other.modulus:
            raise ValueError("mixed cyclotomic moduli")

    def __add__(self, other: "CycElt") -> "CycElt":
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            return CycElt._make(self.modulus, map(int.__add__, self.num, other.num), da)
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return CycElt._make(self.modulus,
                            (a * fa + b * fb for a, b in zip(self.num, other.num)), den)

    def __neg__(self) -> "CycElt":
        return CycElt._make(self.modulus, (-a for a in self.num), self.den)

    def __sub__(self, other: "CycElt") -> "CycElt":
        return self + (-other)

    def __mul__(self, other) -> "CycElt":
        if isinstance(other, (int, Fraction)):
            return _scale(self, Fraction(other))
        self._check(other)
        return _mul(self, other)

    __rmul__ = __mul__

    def inverse(self) -> "CycElt":
        """Field inverse: the product of the other Galois conjugates over the
        rational norm."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        norm, cofactor = _norm_and_cofactor(self)
        return _scale(cofactor, 1 / norm)

    def __truediv__(self, other: "CycElt") -> "CycElt":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return Fraction(self.num[0], self.den)

    # -- Galois

    def galois(self, k: int) -> "CycElt":
        """Apply zeta -> zeta^k (k must be a unit mod N)."""
        n = self.modulus
        if gcd(k, n) != 1:
            raise ValueError(f"exponent {k} not invertible mod {n}")
        return _galois(self, k % n)

    def conjugate(self) -> "CycElt":
        return self.galois(self.modulus - 1)

    def is_real(self) -> bool:
        return self.conjugate() == self

    # -- numerics

    def interval(self, prec: int) -> Interval:
        """Exact enclosure of sum c_i cos(2 pi i / N), the value of a real
        element, each cosine to within 2^-prec (`_cos_2pi`)."""
        mid = rad = Fraction(0)
        for i, c in enumerate(self.num):
            if c:
                m, r = _cos_2pi(self.modulus, i, prec)
                mid, rad = mid + c * m, rad + abs(c) * r
        return Interval((mid - rad) / self.den, (mid + rad) / self.den)

    def sign(self) -> int:
        """Exact sign (-1, 0, +1) of a real cyclotomic number: zero is decided
        structurally (canonical coefficients); otherwise `interval` is refined
        until it excludes 0."""
        if not self.is_real():
            raise ValueError("sign of a non-real cyclotomic number")
        if self.is_zero():
            return 0
        prec = 64
        while True:
            box = self.interval(prec)
            if box.a > 0:
                return 1
            if box.b < 0:
                return -1
            prec *= 2
            if prec > 1 << 16:
                raise RuntimeError("sign refinement failed to separate from zero")

    # -- traces and norms

    def trace_to_K(self) -> "CycElt":
        """Trace from L = Q(zeta_7) to K = Q(sqrt(-7)): a + a^sigma + a^sigma^2."""
        self._require_mod7()
        return self + self.galois(2) + self.galois(4)

    def in_K(self) -> bool:
        """True when the element lies in the sigma-fixed subfield K (N = 7)."""
        self._require_mod7()
        return self.galois(2) == self

    def _require_mod7(self) -> None:
        if self.modulus != 7:
            raise ValueError("operation defined for Q(zeta_7) only")

    # -- display

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = f"z^{i}" if i > 1 else "z"
                parts.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# the arithmetic kernels, on canonical elements of one modulus

def _mul(a: CycElt, b: CycElt) -> CycElt:
    n = a.modulus
    bn = b.num
    prod = [0] * (2 * len(bn) - 1)
    for i, ai in enumerate(a.num):
        if ai:
            for j, bj in enumerate(bn, i):
                prod[j] += ai * bj
    return CycElt._make(n, _reduce(n, prod), a.den * b.den)


def _scale(a: CycElt, q: Fraction) -> CycElt:
    return CycElt._make(a.modulus, (x * q.numerator for x in a.num), a.den * q.denominator)


def _galois(a: CycElt, k: int) -> CycElt:
    out = [0] * len(a.num)
    for c, row in zip(a.num, _galois_table(a.modulus, k)):
        if c:
            for i, t in enumerate(row):
                if t:
                    out[i] += c * t
    return CycElt._make(a.modulus, out, a.den)


def _norm_and_cofactor(a: CycElt) -> tuple[Fraction, CycElt]:
    """The rational norm N(a) and c = N(a)/a, the product of the other
    Galois conjugates, built one step of `_norm_tower` at a time: y is the
    product of the conjugates of a over the subgroup built so far, a*c = y."""
    n = a.modulus
    y, c = a, None
    for g, m in _norm_tower(n):
        p = _galois(y, g)
        for i in range(2, m):
            p = _mul(p, _galois(y, pow(g, i, n)))
        c = p if c is None else _mul(c, p)
        y = _mul(y, p)
    if c is None:  # Q(zeta_1) = Q(zeta_2) = Q
        c = CycElt.one(n)
    return y.as_rational(), c


@lru_cache(maxsize=None)
def _cos_2pi(n: int, i: int, prec: int) -> tuple[Fraction, Fraction]:
    """(m, r) with |cos(2 pi i / n) - m| <= r <= 2^-prec: the Taylor series at
    t = 2 mid(pi) j / n, j = min(i, n - i), in integers scaled by 2^w.  Each
    term is floored from the one before; `err` bounds how far below the true
    term flooring put it.  The series stops at a term that floors to 0, which
    bounds the Lagrange remainder by `err` units; cos being 1-Lipschitz,
    |t - 2 pi j / n| <= width(pi) j / n widens the sum."""
    w = prec + prec.bit_length() + 4
    pi, j = pi_interval(w), min(i, n - i)
    t = (pi.a + pi.b) * j / n
    a, d = t.numerator ** 2, t.denominator ** 2
    term, err, total, bound, k = 1 << w, 0, 0, 0, 0
    while term:
        total, bound = total + (-1) ** k * term, bound + err
        step = d * (2 * k + 1) * (2 * k + 2)
        term, err = term * a // step, -(-err * a // step) + 1
        k += 1
    return Fraction(total, 1 << w), Fraction(bound + err, 1 << w) + (pi.b - pi.a) * j / n


# distinguished elements of L = Q(zeta_7), each computed once

def zeta7() -> CycElt:
    return CycElt.zeta(7)


@cache
def lam() -> CycElt:
    """lambda = zeta + zeta^2 + zeta^4 = (-1 + sqrt(-7)) / 2, generator of o_K."""
    z = zeta7()
    return z + z.galois(2) + z.galois(4)


@cache
def lam_bar() -> CycElt:
    return lam().conjugate()


@cache
def alpha() -> CycElt:
    """alpha = lambda / lambda_bar, the cyclic-algebra parameter."""
    return lam() / lam_bar()
