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
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from . import matrix3 as m3, validated


class NotPrimitive(ValueError):
    pass


@validated
class CyclicSingularity(NamedTuple):
    n: int
    q: int

    def __post_init__(self):
        if self.n < 2 or not (1 <= self.q < self.n) or math.gcd(self.n, self.q) != 1:
            raise ValueError(f"({self.n},{self.q}) is not a valid cyclic type")


class HJChain(NamedTuple):
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


class OrbifoldSurface(NamedTuple):
    euler: Fraction
    signature: Fraction
    points: tuple[CyclicSingularity, ...]


def _hj_runs(n: int, q: int):
    """Runs (b, count) of the continued fraction n/q = b1 - 1/(b2 - ...): while
    2q >= n the next floor(q/d) entries are 2, each taking d = n - q off n and
    q, so a chain of any length is walked in Euclid's steps."""
    while q:
        if 2 * q >= n:
            d = n - q
            yield 2, q // d
            n, q = d + q % d, q % d
        else:
            b = -(-n // q)  # ceil(n/q)
            yield b, 1
            n, q = q, b * q - n


def hj_expand(s: CyclicSingularity) -> HJChain:
    """Continued fraction n/q = b1 - 1/(b2 - 1/(...)), all b_i >= 2."""
    return HJChain(tuple(-b for b, count in _hj_runs(s.n, s.q) for _ in range(count)))


def singularity_type_from_rotation(n: int, a: int, b: int) -> CyclicSingularity:
    """Type of the quotient by diag(zeta_n^a, zeta_n^b) with gcd(a,n)=1."""
    if math.gcd(a, n) != 1 or math.gcd(b, n) != 1:
        raise NotPrimitive("rotation eigenvalues must be primitive n-th roots")
    q = (b * pow(a, -1, n)) % n
    return CyclicSingularity(n, q)


def dedekind_sum(q: int, n: int) -> Fraction:
    """s(q, n) = sum over k = 1 .. n-1 of ((k/n)) ((kq/n)), in Euclid's steps by
    reciprocity: s(q, n) = -s(n mod q, q) - 1/4 + (q/n + n/q + 1/(nq))/12
    for 0 < q < n, and s(0, 1) = 0."""
    if n < 1 or math.gcd(q, n) != 1:
        raise ValueError("need n >= 1 and gcd(q,n) = 1")
    total, sign, q = Fraction(0), 1, q % n
    while q:
        total += sign * (Fraction(q * q + n * n + 1, 12 * q * n) - Fraction(1, 4))
        sign, n, q = -sign, q, n % q
    return total


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
    by one (the chains are negative definite).  Chains are counted, not built."""
    blowups = sum(count for p in x.points for _, count in _hj_runs(p.n, p.q))
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
