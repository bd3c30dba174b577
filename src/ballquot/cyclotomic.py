"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored as integer numerators over one common denominator in
the power basis zeta^0 .. zeta^(d-1), d = phi(N):

    (num[0] + num[1]*zeta + ... + num[d-1]*zeta^(d-1)) / den

always in canonical form: den > 0 and gcd(num[0], ..., num[d-1], den) = 1,
so zero is all zeros over 1.  The power basis is an integral basis of
Z[zeta_N], so every element has exactly one such form, and `==` and `hash`
compare the integers directly.  `coeffs` reads the same element as a tuple
of `Fraction`s, computed when it is read.

One integer kernel does the arithmetic.  `convolve` adds p * sigma_k(q) to
a vector of the group ring Z[C_N] = Z[x]/(x^N - 1), which maps onto
Z[zeta_N]; sigma_k, the Galois map zeta -> zeta^k, is the index map
x^b -> x^(k*b mod N), read from the table `index_map(N, k)` built on first
use.  `fold` takes such a vector to its power-basis numerators through a
table of x^j mod Phi_N, and `CycElt.from_group_ring` canonicalises what it
gives (`CycElt.from_numerators` canonicalises numerators given directly).
A product is one kernel call with k = 1, a Galois map one call with p = 1,
and the cyclic algebra over Q(zeta_7) computes on its integer vectors with
the same kernel and the same fold: its product makes one call per
component x_i, through a table whose slots hold both sigma^-i and the
u-degree, of which `index_map(7, k)` is the 7-slot case.  An inverse is
c/(a*c) for c the product of the other phi(N) - 1 Galois conjugates, a*c
being the rational norm; that suffices, as a process makes one, of the
rational nrd(b) = 3.  The sign of a real element is exact:
`interval` encloses its value between two `Fraction`s, from cosine series
in scaled integers and `symreal.pi_interval`.

N = 7 carries the core field L = Q(zeta_7) with its quadratic subfield
K = Q(sqrt(-7)); N = 21 is used for mixed order-3/order-7 fixed point data.
K has one shape in the power basis of L.  lambda = zeta + zeta^2 + zeta^4 is
a Gauss period, so (p + q*lambda)/den has the numerators (p, q, q, 0, q, 0)
(`CycElt.from_K`), and an element lies in K exactly when its numerators
have that shape (`in_K`).  sigma: zeta -> zeta^2 permutes the exponents
{1, 2, 4} and {3, 5, 6}, so Tr_{L/K} sends zeta^t to 3, lambda or
lambda_bar = -1 - lambda, and `trace_to_K(num, den)`, which the method
`CycElt.trace_to_K` and the algebra's reduced trace call, is two integer
sums of the numerators.  `K_parts` reads (p, q, den) back for
`lambda_valuation`.  As lambda^2 = -lambda - 2 and N(lambda) = 2,
alpha = lambda / lambda_bar = (-2 - lambda) / 2, so `lam`, `lam_bar` and
`alpha` are `from_K` calls.  None of these needs a Galois map; no other
module reads K's numerators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lcm

from . import Frozen, _lowest_terms, exact
from .symreal import Interval, pi_interval


class DivisionByZero(ZeroDivisionError):
    pass


# ---------------------------------------------------------------------------
# integer tables, one per modulus

@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first: x^n - 1 divided by Phi_d
    for every proper divisor d of n; n must be at least 1."""
    if n < 1:
        raise ValueError(f"no cyclotomic polynomial Phi_{n}: the modulus must be at least 1")
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
    """The order of (Z/n)^x, the degree of Q(zeta_n); n must be at least 1."""
    if n < 1:
        raise ValueError(f"no cyclotomic field Q(zeta_{n}): the modulus must be at least 1")
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def _fold_table(n: int) -> tuple[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]]:
    """(d, rows) with d = phi(n): the rows (j, terms) for d <= j < n list the
    nonzero (i, c) of x^j mod Phi_n = sum c x^i."""
    d = euler_phi(n)
    phi = cyclotomic_polynomial(n)
    row = [-c for c in phi[:d]]  # x^d = -(phi_0 + ... + phi_(d-1) x^(d-1))
    rows = []
    for j in range(d, n):
        rows.append((j, tuple((i, c) for i, c in enumerate(row) if c)))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, phi)]
    return d, tuple(rows)


@lru_cache(maxsize=None)
def index_map(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The Galois map sigma_k: zeta -> zeta^k as an index map of the group ring
    Z[C_n] = Z[x]/(x^n - 1): row a holds (a + k*b) mod n for b < n, the
    exponent of x^a * sigma_k(x^b)."""
    return tuple(tuple((a + k * b) % n for b in range(n)) for a in range(n))


def fold(n: int, acc: list[int]) -> list[int]:
    """The phi(n) power-basis numerators of the image of acc, a list of n
    integers of Z[C_n], in Z[zeta_n]: each zeta^j with j >= phi(n) is read
    from the table of x^j mod Phi_n."""
    d, rows = _fold_table(n)
    if len(acc) != n:
        raise ValueError(f"Z[C_{n}] needs {n} integers, got {len(acc)}")
    out = acc[:d]
    for j, terms in rows:
        c = acc[j]
        if c:
            for i, t in terms:
                out[i] += c * t
    return out


def convolve(acc: list[int], p, q, sigma) -> list[int]:
    """acc += p[a] * q[b] at slot sigma[a][b] for every a and b; returns acc.
    For sigma = index_map(n, k) that is acc += p * sigma_k(q) in Z[C_n], with p
    and q integer vectors of at most n entries and acc a list of n."""
    for pa, targets in zip(p, sigma):
        if pa:
            for t, qb in zip(targets, q):
                acc[t] += pa * qb
    return acc


# ---------------------------------------------------------------------------

class CycElt(Frozen):
    """Element of Q(zeta_N): integer numerators `num` over `den`, canonical,
    so `Frozen`'s field-wise `==` and `hash` compare the integers."""

    __slots__ = _fields = ("modulus", "num", "den")

    def __init__(self, modulus: int, coeffs) -> None:
        coeffs = [exact(c) for c in coeffs]
        # over the least common denominator of reduced fractions the gcd is already 1
        den = lcm(1, *(c.denominator for c in coeffs))
        num = tuple([c.numerator * (den // c.denominator) for c in coeffs])
        if len(num) != euler_phi(modulus):
            raise ValueError(f"Q(zeta_{modulus}) needs {euler_phi(modulus)} coefficients, "
                             f"got {len(num)}")
        super().__init__(modulus, num, den)

    @classmethod
    def _make(cls, n: int, num, den: int = 1) -> "CycElt":
        """The element num/den from integers, den > 0, in lowest terms."""
        num, den = _lowest_terms(num, den)
        return cls._set(n, num, den)

    @classmethod
    def _set(cls, n: int, num: tuple[int, ...], den: int) -> "CycElt":
        """The element with these three slots, unchecked: num/den must already
        be canonical.  Every element but those of `__init__` is built here."""
        self = object.__new__(cls)
        setter = object.__setattr__
        setter(self, "modulus", n)
        setter(self, "num", num)
        setter(self, "den", den)
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in the power basis, as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def __repr__(self) -> str:
        return f"CycElt(modulus={self.modulus}, coeffs={self.coeffs!r})"

    # -- constructors

    @staticmethod
    def from_group_ring(n: int, acc, den: int = 1) -> "CycElt":
        """The image (acc[0] + acc[1]*zeta + ... + acc[n-1]*zeta^(n-1)) / den
        of a list of n integers of Z[C_n] over den > 0, canonical: `fold`
        gives its power-basis numerators."""
        return CycElt._make(n, fold(n, acc), den)

    @staticmethod
    def from_numerators(n: int, num, den: int = 1) -> "CycElt":
        """num/den from the phi(n) integer power-basis numerators num and den > 0,
        canonical: what an element of the cyclic algebra keeps for each component."""
        if len(num) != euler_phi(n):
            raise ValueError(f"Q(zeta_{n}) needs {euler_phi(n)} numerators, got {len(num)}")
        return CycElt._make(n, num, den)

    @staticmethod
    def from_K(p: int, q: int, den: int = 1) -> "CycElt":
        """(p + q*lambda) / den in Q(zeta_7) for integers p, q and den > 0:
        lambda = zeta + zeta^2 + zeta^4 has no zeta^6 term, so the power-basis
        numerators are (p, q, q, 0, q, 0) with nothing to fold.  Their gcd
        with den is gcd(den, p, q), so the three integers are divided by that."""
        if den <= 0:
            raise ValueError(f"the denominator den must be positive, got {den}")
        g = gcd(den, p, q)
        if g != 1:
            p, q, den = p // g, q // g, den // g
        return CycElt._set(7, (p, q, q, 0, q, 0), den)

    @staticmethod
    def zero(n: int) -> "CycElt":
        return CycElt._make(n, (0,) * euler_phi(n))

    @staticmethod
    def one(n: int) -> "CycElt":
        return CycElt.rational(n, 1)

    @staticmethod
    def rational(n: int, q: Fraction | int) -> "CycElt":
        q = exact(q)
        return CycElt._make(n, (q.numerator,) + (0,) * (euler_phi(n) - 1), q.denominator)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycElt":
        return CycElt.from_group_ring(n, [int(j == power % n) for j in range(n)])

    # -- ring/field structure

    def _check(self, other: "CycElt") -> None:
        if self.modulus != other.modulus:
            raise ValueError("mixed cyclotomic moduli")

    def __add__(self, other: "CycElt") -> "CycElt":
        if not isinstance(other, CycElt):
            return NotImplemented
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
        if not isinstance(other, CycElt):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "CycElt":
        """The product with an element of the same field, or with an int or
        Fraction scalar (not a bool)."""
        if isinstance(other, CycElt):
            self._check(other)
            return _mul(self, other)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return _scale(self, Fraction(other))
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CycElt":
        """Field inverse by the definition: c, the product of the other
        phi(N) - 1 Galois conjugates sigma_k(a), k != 1 a unit mod N, makes
        a*c the rational norm, so a^-1 = c / (a*c).  That suffices: a process
        inverts once, only nrd(b) = 3 behind b^-1."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        n, c = self.modulus, CycElt.one(self.modulus)
        for k in range(2, n):
            if gcd(k, n) == 1:
                c = _mul(c, _galois(self, k))
        return _scale(c, 1 / _mul(self, c).as_rational())

    def __truediv__(self, other: "CycElt") -> "CycElt":
        if not isinstance(other, CycElt):
            return NotImplemented
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
        for prec in (64 << i for i in range(11)):  # 64 up to 2^16 bits
            box = self.interval(prec)
            if box.a > 0:
                return 1
            if box.b < 0:
                return -1
        raise RuntimeError("sign refinement failed to separate from zero")

    # -- the subfield K

    def trace_to_K(self) -> "CycElt":
        """Trace a + a^sigma + a^sigma^2 from L = Q(zeta_7) to K = Q(sqrt(-7))."""
        self._require_mod7()
        return trace_to_K(self.num, self.den)

    def in_K(self) -> bool:
        """True when the element lies in the sigma-fixed subfield K (N = 7):
        its numerators have the shape (p, q, q, 0, q, 0) of `from_K`."""
        self._require_mod7()
        _, a1, a2, a3, a4, a5 = self.num
        return a1 == a2 == a4 and a3 == a5 == 0

    def K_parts(self) -> tuple[int, int, int]:
        """The integers (p, q, den) of an element (p + q*lambda)/den of K, as
        `from_K` takes them; ValueError outside K."""
        if not self.in_K():
            raise ValueError("element is not in the subfield K")
        return self.num[0], self.num[1], self.den

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

UNIT = (1,)  # x^0 of Z[C_n]: convolve(acc, UNIT, q, sigma) adds sigma(q) alone


def _mul(a: CycElt, b: CycElt) -> CycElt:
    n = a.modulus
    acc = [0] * n
    convolve(acc, a.num, b.num, index_map(n, 1))
    return CycElt.from_group_ring(n, acc, a.den * b.den)


def _scale(a: CycElt, q: Fraction) -> CycElt:
    return CycElt._make(a.modulus, (x * q.numerator for x in a.num), a.den * q.denominator)


def _galois(a: CycElt, k: int) -> CycElt:
    n = a.modulus
    acc = [0] * n
    convolve(acc, UNIT, a.num, index_map(n, k))
    return CycElt.from_group_ring(n, acc, a.den)


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


def trace_to_K(num, den: int) -> CycElt:
    """The trace from L = Q(zeta_7) to K of num/den, num its six power-basis
    numerators, read off them: zeta^t traces to 3 for t = 0, to lambda for
    t in {1, 2, 4} and to lambda_bar = -1 - lambda for t in {3, 5, 6}."""
    a0, a1, a2, a3, a4, a5 = num
    return CycElt.from_K(3 * a0 - a3 - a5, a1 + a2 + a4 - a3 - a5, den)


# distinguished elements of L = Q(zeta_7), each computed once

def zeta7() -> CycElt:
    return CycElt.zeta(7)


@cache
def lam() -> CycElt:
    """lambda = zeta + zeta^2 + zeta^4 = (-1 + sqrt(-7)) / 2, generator of o_K."""
    return CycElt.from_K(0, 1)


@cache
def lam_bar() -> CycElt:
    """lambda_bar = -1 - lambda, the complex conjugate of lambda."""
    return CycElt.from_K(-1, -1)


@cache
def alpha() -> CycElt:
    """alpha = lambda / lambda_bar = lambda^2 / 2 = (-2 - lambda) / 2, the
    cyclic-algebra parameter."""
    return CycElt.from_K(-2, -1, 2)


def lambda_valuation(a: CycElt) -> int:
    """Valuation of a nonzero element of K at the prime (lambda) above 2."""
    if a.is_zero():
        raise ValueError("valuation of zero")
    # a = (p + q*lambda) / den.  Divide p + q*lambda by lambda while the
    # quotient stays in o_K: x/lambda = x*lambda_bar/2 = (q - p/2) - (p/2)*lambda
    p, q, den = a.K_parts()
    v = 0
    while p % 2 == 0:
        p, q = q - p // 2, -(p // 2)
        v += 1
    return v - ((den & -den).bit_length() - 1)  # v_lambda(den) = v_2(den)
