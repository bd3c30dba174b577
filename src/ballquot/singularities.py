"""Cyclic quotient singularities: resolution chains, defects, and heights.

A point of type (n,q) resolves into a Hirzebruch-Jung chain of rational
curves read off from the continued fraction of n/q.  Dedekind sums give the
signature defect of each point; Euler and signature heights of an orbifold
surface then behave multiplicatively under coverings.  The branch-data
solver inverts them: a complete search, bounded by the Euler budget, for the
extra quotient points that meet both height targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import matrix3 as m3


class NotPrimitive(ValueError):
    pass


@dataclass(frozen=True)
class CyclicSingularity:
    n: int
    q: int

    def __post_init__(self):
        if self.n < 2 or not (1 <= self.q < self.n) or math.gcd(self.n, self.q) != 1:
            raise ValueError(f"({self.n},{self.q}) is not a valid cyclic type")


@dataclass(frozen=True)
class HJChain:
    self_intersections: tuple[int, ...]

    def intersection_matrix(self) -> list[list[int]]:
        r = len(self.self_intersections)
        m = [[0] * r for _ in range(r)]
        for i, b in enumerate(self.self_intersections):
            m[i][i] = b
            if i + 1 < r:
                m[i][i + 1] = m[i + 1][i] = 1
        return m

    def determinant(self) -> int:
        return int(m3.gauss_jordan(self.intersection_matrix())[0])


@dataclass(frozen=True)
class OrbifoldSurface:
    euler: Fraction
    signature: Fraction
    points: tuple[CyclicSingularity, ...]


def hj_expand(s: CyclicSingularity) -> HJChain:
    """Continued fraction n/q = b1 - 1/(b2 - 1/(...)), all b_i >= 2."""
    n, q = s.n, s.q
    digits = []
    while q:
        b = -((-n) // q)  # ceil(n/q)
        digits.append(b)
        n, q = q, b * q - n
    return HJChain(tuple(-b for b in digits))


def singularity_type_from_rotation(n: int, a: int, b: int) -> CyclicSingularity:
    """Type of the quotient by diag(zeta_n^a, zeta_n^b) with gcd(a,n)=1."""
    if math.gcd(a, n) != 1 or math.gcd(b, n) != 1:
        raise NotPrimitive("rotation eigenvalues must be primitive n-th roots")
    q = (b * pow(a, -1, n)) % n
    return CyclicSingularity(n, q)


def _sawtooth(x: Fraction) -> Fraction:
    x = x - math.floor(x)
    if x == 0:
        return Fraction(0)
    return x - Fraction(1, 2)


def dedekind_sum(q: int, n: int) -> Fraction:
    if n < 1 or math.gcd(q, n) != 1:
        raise ValueError("need n >= 1 and gcd(q,n) = 1")
    return sum((_sawtooth(Fraction(k, n)) * _sawtooth(Fraction(k * q, n))
                for k in range(1, n)), Fraction(0))


def signature_defect(s: CyclicSingularity) -> Fraction:
    return -4 * dedekind_sum(s.q, s.n)


def euler_height(x: OrbifoldSurface) -> Fraction:
    return Fraction(x.euler) - sum((1 - Fraction(1, p.n) for p in x.points),
                                   Fraction(0))


def signature_height(x: OrbifoldSurface) -> Fraction:
    return Fraction(x.signature) - sum((signature_defect(p) for p in x.points),
                                       Fraction(0))


def check_cover_multiplicativity(y_euler: Fraction, y_sign: Fraction,
                                 x: OrbifoldSurface, degree: int) -> bool:
    """Euler and signature of a smooth finite cover against heights times degree."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return (Fraction(y_euler) == degree * euler_height(x)
            and Fraction(y_sign) == degree * signature_height(x))


def resolve_invariants(x: OrbifoldSurface) -> tuple[Fraction, Fraction, int]:
    """Invariants of the minimal resolution: each exceptional curve of every
    resolution chain bumps the Euler number by one and drops the signature
    by one (the chains are negative definite)."""
    blowups = sum(len(hj_expand(p).self_intersections) for p in x.points)
    return (Fraction(x.euler) + blowups, Fraction(x.signature) - blowups, blowups)


def solve_branch_data(total_euler: Fraction, total_sign: Fraction,
                      known_points: list[CyclicSingularity],
                      target_euler_height: Fraction,
                      target_sign_height: Fraction,
                      d_max: int) -> list[tuple[int, tuple[CyclicSingularity, ...]]]:
    """All multisets of extra quotient points matching both height targets.

    A point of type (d, e) costs 1 - 1/d of Euler height, so r points fit the
    Euler budget exactly when their reciprocal orders sum to r - budget; r is
    at most twice the budget.  A depth-first search places the points in
    nondecreasing (d, e) order.  With k points still to place and reciprocal
    sum t still to reach, the next order lies in
    [max(d_prev, ceil(1/t)), min(floor(k/t), d_max)], so d_max only caps the
    search and no order the budget rules out is visited.  The signature target
    is tested at the leaves.  Solutions come by r, then lexicographically in
    (d, e).
    """
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    base = OrbifoldSurface(Fraction(total_euler), Fraction(total_sign),
                           tuple(known_points))
    e_budget = euler_height(base) - Fraction(target_euler_height)
    s_budget = signature_height(base) - Fraction(target_sign_height)
    if e_budget < 0:
        return []
    defect = cache(signature_defect)
    solutions = []

    def extend(points: tuple[CyclicSingularity, ...], k: int, t: Fraction) -> None:
        if k == 0:
            if t == 0 and sum(map(defect, points), Fraction(0)) == s_budget:
                solutions.append((len(points), points))
            return
        if t <= 0:
            return
        d_prev, e_prev = (points[-1].n, points[-1].q) if points else (2, 1)
        for d in range(max(d_prev, math.ceil(1 / t)), min(math.floor(k / t), d_max) + 1):
            for e in range(e_prev if d == d_prev else 1, d):
                if math.gcd(d, e) == 1:
                    extend(points + (CyclicSingularity(d, e),), k - 1, t - Fraction(1, d))

    for r in range(math.floor(2 * e_budget) + 1):
        extend((), r, r - e_budget)
    return solutions
