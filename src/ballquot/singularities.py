"""Cyclic quotient singularities: resolution chains, defects, and heights.

A point of type (n,q) resolves into a Hirzebruch-Jung chain of rational
curves read off from the continued fraction of n/q.  Dedekind sums, read off
the same chain, give the signature defect of each point; Euler and signature
heights of an orbifold surface then behave multiplicatively under coverings.  The branch-data
solver inverts them: a complete search, bounded by the Euler budget, for the
extra quotient points that meet both height targets.

`QUOTIENTS` states the two quotients of Keum's fake projective plane X once:
X/Gamma by the order-7 automorphism, with three (7,3) points, and X/Gamma~
by the order-21 group Z/7 x| Z/3, with one (7,3) point and three (3,2)
points.  Their heights, their resolutions and their fixed-point classes
(`dimension`) are all read off these points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from . import Frozen, _require_int


class NotPrimitive(ValueError):
    pass


class CyclicSingularity(Frozen):
    __slots__ = _fields = ("n", "q")

    def __init__(self, n: int, q: int) -> None:
        _require_int(n, "n")
        _require_int(q, "q")
        if n < 2 or not (1 <= q < n) or math.gcd(n, q) != 1:
            raise ValueError(f"({n},{q}) is not a valid cyclic type")
        super().__init__(n, q)


class HJChain(NamedTuple):
    self_intersections: tuple[int, ...]

    def determinant(self) -> int:
        """Determinant of the chain's intersection matrix, with the b_i on the
        diagonal and 1 between neighbours: the continuant
        d_i = b_i*d_{i-1} - d_{i-2}, d_0 = 1, d_{-1} = 0."""
        prev, d = 0, 1
        for b in self.self_intersections:
            prev, d = d, b * d - prev
        return d


class OrbifoldSurface(NamedTuple):
    euler: Fraction
    signature: Fraction
    points: tuple[CyclicSingularity, ...]


# keyed by group, like fibrations.json
QUOTIENTS = {
    "gamma": OrbifoldSurface(Fraction(3), Fraction(1), (CyclicSingularity(7, 3),) * 3),
    "gamma_tilde": OrbifoldSurface(Fraction(3), Fraction(1),
                                   (CyclicSingularity(7, 3),) + (CyclicSingularity(3, 2),) * 3),
}


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
    """s(q, n) = sum over k = 1 .. n-1 of ((k/n)) ((kq/n)), read off the
    Hirzebruch-Jung chain of n/q (q taken mod n): 12 s(q, n) = (q + q*)/n +
    sum of (b_i - 3) over the chain entries b_i, with q* = q^-1 mod n
    (Hirzebruch and Zagier, The Atiyah-Singer Theorem and Elementary Number
    Theory, 1974); s(0, 1) = 0 has the empty chain."""
    if n < 1 or math.gcd(q, n) != 1:
        raise ValueError("need n >= 1 and gcd(q,n) = 1")
    q %= n
    runs = sum((b - 3) * count for b, count in _hj_runs(n, q))
    return Fraction(q + pow(q, -1, n) + n * runs, 12 * n)


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
