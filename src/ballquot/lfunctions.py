"""Exact special values of Dirichlet L-functions and the covolume formula.

Bernoulli numbers and polynomials feed generalized Bernoulli numbers, which
give closed forms for L(n, chi) at parity-matching positive integers.  The
covolume of the principal arithmetic group is assembled symbolically; all
powers of pi cancel and the result is an exact rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from operator import truediv
from typing import NamedTuple

from . import validated
from .config import local_factors
from .symreal import SymbolicReal, NotRational


class ParityMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials

@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    # sum_{k=0}^{n} C(n+1,k) B_k = 0 for n >= 1
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)


def bernoulli_polynomial(n: int) -> list[Fraction]:
    """Coefficients of B_n(x), constant term first."""
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = math.comb(n, k) * bernoulli_number(k)
    return coeffs


def _poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# real Dirichlet characters

def kronecker_symbol(a: int, n: int) -> int:
    """The Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out twos of n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol (a|n) for odd n > 0
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


@validated
class DirichletCharacter(NamedTuple):
    """A real character mod f, stored by its values on units."""

    modulus: int
    values: dict[int, int]

    def __post_init__(self):
        for a, v in self.values.items():
            if math.gcd(a, self.modulus) != 1 or v not in (1, -1):
                raise ValueError("values must be +-1 on units")

    @staticmethod
    def kronecker(fundamental_discriminant: int) -> "DirichletCharacter":
        d = fundamental_discriminant
        f = abs(d)
        vals = {a: kronecker_symbol(d, a) for a in range(1, f + 1)
                if math.gcd(a, f) == 1}
        return DirichletCharacter(f, vals)

    def __call__(self, m: int) -> int:
        if self.modulus == 1:
            return 1
        r = m % self.modulus
        return self.values.get(r, 0)

    def is_odd(self) -> bool:
        return self(-1) == -1

    def is_trivial(self) -> bool:
        return self.modulus == 1


def generalized_bernoulli(n: int, chi: DirichletCharacter) -> Fraction:
    """B_{n,chi} = f^{n-1} * sum_{a=1}^{f} chi(a) B_n(a/f)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f = chi.modulus
    poly = bernoulli_polynomial(n)
    acc = Fraction(0)
    for a in range(1, f + 1):
        c = chi(a)
        if c:
            acc += c * _poly_eval(poly, Fraction(a, f))
    return Fraction(f) ** (n - 1) * acc


# ---------------------------------------------------------------------------
# special values

def _sqrt_as_symbolic(f: int) -> SymbolicReal:
    """sqrt(f) as a SymbolicReal; supports perfect squares and 7*square."""
    r = math.isqrt(f)
    if r * r == f:
        return SymbolicReal.rational(Fraction(r))
    if f % 7 == 0:
        g = f // 7
        r = math.isqrt(g)
        if r * r == g:
            return SymbolicReal.term(Fraction(r), 0, 1)
    raise ValueError(f"sqrt({f}) is outside the symbolic coefficient ring")


def riemann_zeta(n: int) -> SymbolicReal:
    """zeta(n) for even n >= 2, via the Bernoulli closed form."""
    if n < 2 or n % 2:
        raise ParityMismatch("only positive even arguments have this closed form")
    b = bernoulli_number(n)
    coeff = Fraction((-1) ** (n // 2 + 1)) * b * Fraction(2 ** (n - 1)) / math.factorial(n)
    return SymbolicReal.term(coeff, n, 0)


def dirichlet_L_value(n: int, chi: DirichletCharacter) -> SymbolicReal:
    """L(n, chi) for a real primitive chi with chi(-1) = (-1)^n.

    Magnitude (2 pi / f)^n sqrt(f) |B_{n,chi}| / (2 n!), sign positive:
    the Euler product over primes has every factor positive for n > 1, and
    for n = 1 positivity is classical for real characters.
    """
    if chi.is_trivial():
        return riemann_zeta(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if (chi.is_odd() and n % 2 == 0) or (not chi.is_odd() and n % 2 == 1):
        raise ParityMismatch("chi(-1) must equal (-1)^n")
    f = chi.modulus
    b = abs(generalized_bernoulli(n, chi))
    mag = SymbolicReal.term(Fraction(2 ** n, f ** n) * b / (2 * math.factorial(n)), n, 0)
    return mag * _sqrt_as_symbolic(f)


def l_series_oracle(n: int, chi: DirichletCharacter, terms: int) -> tuple[float, float]:
    """Partial sum of the Dirichlet series with a crude tail bound."""
    if n < 2 or terms < 10:
        raise ValueError("need n >= 2 and terms >= 10")
    tail = terms ** (1 - n) / (n - 1)
    f = chi.modulus
    signs = {r: chi(r) for r in range(1, f + 1)}
    # chi(r)/m^n for m = r, r + f, ... <= terms, one residue r at a time: each term is
    # one correctly rounded int/int division, and fsum rounds the exact sum once, so
    # the order of the terms does not change the result
    return math.fsum(chain.from_iterable(
        map(truediv, repeat(c), map(pow, range(r, terms + 1, f), repeat(n)))
        for r, c in signs.items() if c)), tail


# ---------------------------------------------------------------------------
# covolume

class VolumeInput(NamedTuple):
    D_K: int
    D_F: int
    field_degree: int
    zeta_value: SymbolicReal
    l_value: SymbolicReal
    local_factors: dict[str, Fraction]


def covolume(v: VolumeInput) -> Fraction:
    """vol = 3 D_K^{5/2} D_F^{-1} (16 pi^5)^{-degree} zeta(2) L(3) prod e(v).

    The pi powers must cancel exactly; a residue means the L-value or zeta
    input is inconsistent and raises NotRational.
    """
    dk = SymbolicReal.rational(Fraction(v.D_K ** 2)) * _sqrt_as_symbolic(v.D_K)
    acc = SymbolicReal.rational(Fraction(3, v.D_F)) * dk
    deg = v.field_degree
    acc = acc * SymbolicReal.term(Fraction(1, 16 ** deg), -5 * deg, 0)
    acc = acc * v.zeta_value * v.l_value
    e = Fraction(1)
    for val in v.local_factors.values():
        e *= Fraction(val)
    acc = acc * SymbolicReal.rational(e)
    return acc.as_rational()


def covolume_from_config(cfg: dict, zeta_2: SymbolicReal, l_value: SymbolicReal) -> Fraction:
    """`covolume` of the principal arithmetic group from zeta(2), L(3, chi_-7)
    and the config's `local_factors`, checked by `config.local_factors`."""
    return covolume(VolumeInput(7, 1, 1, zeta_2, l_value, local_factors(cfg)))


def euler_number_of_cover(covol: Fraction, index: int) -> Fraction:
    """Euler number of a degree-`index` cover: index times the covolume."""
    if index < 1:
        raise ValueError("index must be >= 1")
    return Fraction(covol) * index
