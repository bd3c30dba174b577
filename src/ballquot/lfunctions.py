"""Exact special values of Dirichlet L-functions and the covolume formula.

A real character chi_d takes its values from the Kronecker symbol (d|n),
whose odd prime factors come from Euler's criterion.  The generalized
Bernoulli number B_{n,chi} is one sum over Bernoulli numbers and powers of
the residues, and gives closed forms for L(n, chi) at parity-matching
positive integers, zeta(n) being L(n, chi_0).  The covolume of the
principal arithmetic group is assembled symbolically; all powers of pi
cancel and the result is an exact rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from operator import truediv
from typing import NamedTuple

from . import factor_int, validated
from .symreal import SymbolicReal, NotRational


class ParityMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# Bernoulli numbers

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


# ---------------------------------------------------------------------------
# real Dirichlet characters

def kronecker_symbol(d: int, n: int) -> int:
    """The Kronecker symbol (d|n) for n >= 1, the product of (d|p)^e over the
    prime powers p^e of n: (d|2) is 0, 1, 0, -1, 0, -1, 0, 1 as d mod 8 runs
    from 0 to 7, and for an odd prime p Euler's criterion gives (d|p) as
    d^((p-1)/2) mod p, which is 0, 1 or p - 1."""
    if n < 1:  # factor_int(0) is {}, which would make (d|0) the empty product 1
        raise ValueError("n must be >= 1")
    acc = 1
    for p, e in factor_int(n).items():
        if p == 2:
            s = (0, 1, 0, -1, 0, -1, 0, 1)[d % 8]
        else:
            r = pow(d, (p - 1) // 2, p)
            s = -1 if r == p - 1 else r
        acc *= s ** e
    return acc


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


def generalized_bernoulli(n: int, chi: DirichletCharacter) -> Fraction:
    """B_{n,chi} = f^{n-1} * sum_{a=1}^{f} chi(a) B_n(a/f), which with
    B_n(x) = sum_{k=0}^{n} C(n,k) B_k x^{n-k} is the one sum
    sum_{k=0}^{n} C(n,k) B_k f^{k-1} sum_{a=1}^{f} chi(a) a^{n-k}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f = chi.modulus
    return sum(math.comb(n, k) * bernoulli_number(k) * Fraction(f) ** (k - 1)
               * sum(chi(a) * a ** (n - k) for a in range(1, f + 1))
               for k in range(n + 1))


# ---------------------------------------------------------------------------
# special values

def _sqrt_as_symbolic(f: int) -> SymbolicReal:
    """sqrt(f) as a SymbolicReal, for f = r^2 or f = 7 r^2."""
    for root in (0, 1):
        r = math.isqrt(f // 7 ** root)
        if r * r * 7 ** root == f:
            return SymbolicReal.term(r, 0, root)
    raise ValueError(f"sqrt({f}) is outside the symbolic coefficient ring")


def riemann_zeta(n: int) -> SymbolicReal:
    """zeta(n) = L(n, chi_0) for even n >= 2, chi_0 the trivial character mod 1."""
    if n < 2 or n % 2:
        raise ParityMismatch("only positive even arguments have this closed form")
    return dirichlet_L_value(n, DirichletCharacter(1, {}))


def dirichlet_L_value(n: int, chi: DirichletCharacter) -> SymbolicReal:
    """L(n, chi) for a real primitive chi with chi(-1) = (-1)^n.

    Magnitude (2 pi / f)^n sqrt(f) |B_{n,chi}| / (2 n!), sign positive:
    the Euler product over primes has every factor positive for n > 1, and
    for n = 1 positivity is classical for real characters.
    """
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

def covolume(zeta_2: SymbolicReal, l_value: SymbolicReal,
             local_factors: dict[str, Fraction]) -> Fraction:
    """Prasad's covolume for K = Q(sqrt(-7)) over Q (D_K = 7, D_F = 1, degree 1):
    3 * 7^(5/2) / (16 pi^5) * zeta(2) * L(3, chi_-7) * prod e(v).

    The pi powers must cancel exactly; a residue means the L-value or zeta
    input is inconsistent and raises NotRational.
    """
    e = SymbolicReal.rational(math.prod(local_factors.values()))
    return (SymbolicReal.term(Fraction(3, 16), -5, 5) * zeta_2 * l_value * e).as_rational()


def euler_number_of_cover(covol: Fraction, index: int) -> Fraction:
    """Euler number of a degree-`index` cover: index times the covolume."""
    if index < 1:
        raise ValueError("index must be >= 1")
    return Fraction(covol) * index
