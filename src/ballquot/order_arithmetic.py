"""Orders of D: the crossed-product order and its iota_b-stable conjugate.

The crossed-product order O = o_L + o_L*lambda_bar*u + o_L*lambda_bar*u^2
(`OrderBasis.standard()`) is stable under the canonical involution iota but
not under the twisted involution iota_b(x) = b*iota(x)*b^-1.  It is not a
maximal order: its discriminant 2^6 * 7^3 carries the ramified prime above 7.
It is maximal at 3, which is inert in K, and nrd(b) = 3; an element that
normalises an order maximal at an inert prime has reduced norm of valuation
divisible by 3 there, so b does not normalise O and iota_b(O) = b*O*b^-1 != O.

b^3 does normalise O, so the conjugate O_b = b^-1*O*b
(`OrderBasis.iota_b_stable()`) satisfies
iota_b(O_b) = b^2*O*b^-2 = b^-1*(b^3*O*b^-3)*b = O_b.  It is isomorphic to
O, hence has the same discriminant and is maximal at 3, and it is the order
whose unit group the lattice is built from.

Computes the order discriminant, checks invariance under the twisted
involution, classifies torsion orders, and carries the congruence-index and
torsion-freeness arithmetic for the principal congruence subgroup.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple

from . import Frozen, factor_int as _factor_int, matrix3 as m3
from .cyclotomic import CycElt, euler_phi, lam, lam_bar
from .cyclic_algebra import AlgElt, b_element


class BasisNotIntegral(ValueError):
    pass


class BasisShapeError(ValueError):
    """Raised when an `OrderBasis` is built from anything but a tuple of 9 `AlgElt`s."""


# ---------------------------------------------------------------------------
# K = Q(sqrt(-7)) coordinate helpers.  o_K = Z[lambda], lambda = (-1+sqrt(-7))/2.

def K_coords(a: CycElt) -> tuple[Fraction, Fraction]:
    """Write an element of K as p + q*lambda (basis of o_K)."""
    if not a.in_K():
        raise ValueError("element is not in the subfield K")
    if _K_elt(a.num[0], a.num[1], a.den) != a:
        raise AssertionError("K coordinate extraction failed")
    return a.coeffs[0], a.coeffs[1]


def _K_elt(p: int, q: int, den: int = 1) -> CycElt:
    """(p + q*lambda) / den for integers p, q and den > 0."""
    return CycElt.from_K(p, q, den)


def is_K_integral(a: CycElt) -> bool:
    p, q = K_coords(a)
    return p.denominator == 1 and q.denominator == 1


def lambda_valuation(a: CycElt) -> int:
    """Valuation of a nonzero element of K at the prime (lambda) above 2."""
    if a.is_zero():
        raise ValueError("valuation of zero")
    K_coords(a)  # raises unless a lies in K
    # a = (p + q*lambda) / den.  Divide p + q*lambda by lambda while the
    # quotient stays in o_K: x/lambda = x*lambda_bar/2 = (q - p/2) - (p/2)*lambda
    p, q, den = a.num[0], a.num[1], a.den
    v = 0
    while p % 2 == 0:
        p, q = q - p // 2, -(p // 2)
        v += 1
    return v - ((den & -den).bit_length() - 1)  # v_lambda(den) = v_2(den)


class _OK:
    """p + q*lambda in o_K = Z[lambda], lambda^2 = -lambda - 2: the entries
    of the Gram matrix that `discriminant` eliminates."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        self.p, self.q = p, q

    def __bool__(self) -> bool:
        return bool(self.p or self.q)

    def __neg__(self) -> "_OK":
        return _OK(-self.p, -self.q)

    def __sub__(self, y: "_OK") -> "_OK":
        return _OK(self.p - y.p, self.q - y.q)

    def __mul__(self, y: "_OK") -> "_OK":
        a, b, c, d = self.p, self.q, y.p, y.q
        return _OK(a * c - 2 * b * d, a * d + b * c - b * d)

    def __floordiv__(self, y: "_OK | int") -> "_OK":
        """The exact quotient x/y = x*conj(y)/N(y), with conj(c + d*lambda) =
        (c - d) - d*lambda and N(y) = c^2 - c*d + 2*d^2.  An int y is the
        1 that Bareiss's update divides by before its first pivot."""
        a, b = self.p, self.q
        if isinstance(y, int):
            return _OK(a // y, b // y)
        c, d = y.p, y.q
        n = c * c - c * d + 2 * d * d
        return _OK((a * (c - d) + 2 * b * d) // n, (b * c - a * d) // n)


# ---------------------------------------------------------------------------

class OrderBasis(Frozen):
    """An o_K-basis (9 elements) of an order in D."""

    _fields = ("elements",)  # tuple[AlgElt, ...]; no __slots__, for cached_property

    def __init__(self, elements: tuple[AlgElt, ...]) -> None:
        if not (isinstance(elements, tuple) and len(elements) == 9
                and all(isinstance(e, AlgElt) for e in elements)):
            raise BasisShapeError(f"an order basis is a tuple of 9 AlgElts, got {elements!r:.80}")
        super().__init__(elements)

    @staticmethod
    def standard() -> "OrderBasis":
        """o_L + o_L*lambda_bar*u + o_L*lambda_bar*u^2 with o_L-blocks {1, zeta, zeta^2}."""
        lb = lam_bar()
        elts = []
        for block in range(3):
            for j in range(3):
                zj = CycElt.zeta(7, j)
                coeff = zj if block == 0 else zj * lb
                comps = [CycElt.zero(7)] * 3
                comps[block] = coeff
                elts.append(AlgElt(*comps))
        return OrderBasis(tuple(elts))

    @staticmethod
    @cache
    def iota_b_stable() -> "OrderBasis":
        """The conjugate order b^-1*O*b of the standard order, with basis b^-1*e_i*b.

        Stable under iota_b for the default b (see the module docstring)."""
        b = b_element()
        b_inv = b.inverse()
        return OrderBasis(tuple(b_inv * e * b for e in OrderBasis.standard().elements))

    @cached_property
    def _coordinate_solver(self) -> tuple[list[list[int]], int]:
        """The inverse of the 18x18 rational system behind `coordinates`, as
        integer rows over one common denominator.

        Column 2k (2k+1) of the system holds the 18 rational coordinates of
        e_k (lambda*e_k), so the solution pairs are (p_k, q_k) with
        x = sum_k (p_k + q_k*lambda) * e_k.  Column c is its integer column
        over d_c: A = A' diag(1/d_c), so A^-1 = diag(d_c) A'^-1."""
        cols, scales = [], []
        for e in self.elements:
            for c in (e, e.scale(lam())):
                (x0, x1, x2), d = c.numerators()
                cols.append(x0 + x1 + x2)
                scales.append(d)
        try:
            inv, den = m3.integer_inverse([list(row) for row in zip(*cols)])
        except m3.SingularMatrix:
            raise m3.SingularMatrix("the basis is not linearly independent over K") from None
        rows = [[d * v for v in row] for d, row in zip(scales, inv)]
        g = math.gcd(den, *(v for row in rows for v in row))
        return [[v // g for v in row] for row in rows], den // g

    def coordinates(self, x: AlgElt) -> list[CycElt]:
        """K-coordinates of x in this basis (9 entries, elements of K)."""
        rows, den = self._coordinate_solver
        (x0, x1, x2), common = x.numerators()
        rhs = x0 + x1 + x2
        # p_k + q_k*lambda over den*common, canonicalised by from_K: so its den
        # is 1 exactly when p_k and q_k are integers, i.e. the coordinate is in o_K
        sol = [sum(map(operator.mul, row, rhs)) for row in rows]
        return [CycElt.from_K(p, q, den * common) for p, q in zip(sol[0::2], sol[1::2])]


def gram_matrix(basis: OrderBasis) -> list[list[CycElt]]:
    """G[i][j] = reduced trace of x_i * x_j, an element of K.

    trd(xy) = trd(yx), so only the entries with i <= j are computed, each
    from the L-component of the product alone."""
    xs = basis.elements
    g = [[None] * len(xs) for _ in xs]
    for i, xi in enumerate(xs):
        for j in range(i, len(xs)):
            t = xi.product_x0(xs[j]).trace_to_K()
            if not t.in_K():
                raise BasisNotIntegral("reduced trace landed outside K")
            g[i][j] = g[j][i] = t
    return g


def discriminant(basis: OrderBasis | None = None) -> dict:
    """Determinant of the 9x9 reduced-trace Gram matrix, with factorization.

    The determinant is computed exactly in K: row i of the Gram matrix is
    cleared by the lcm s_i of its denominators into o_K = Z[lambda], the
    cleared rows are eliminated fraction-free over o_K, and the result is
    divided by the product of the s_i.  For the standard basis it is a
    rational integer, and a rational determinant that is not an integer
    raises `BasisNotIntegral`.  The report factors it and compares against the
    target ideal (2)^6.  The determinant picks up the cube of the relative
    discriminant of the degree-3 extension (the ideal above 7) from the
    three diagonal blocks, so the report separates that ramified part out
    instead of silently rescaling: `two_to_six_after_ramified_part` records
    whether the quotient by 7^3 generates (2)^6.
    """
    b = basis if basis is not None else OrderBasis.standard()
    rows, scale = [], 1
    for row in gram_matrix(b):
        s = math.lcm(*(t.den for t in row))
        rows.append([_OK(t.num[0] * (s // t.den), t.num[1] * (s // t.den)) for t in row])
        scale *= s
    det = m3.determinant(rows)
    d = _K_elt(det.p, det.q, scale)
    result: dict = {"determinant": d}
    if d.is_rational():
        val = d.as_rational()
        if val.denominator != 1:
            raise BasisNotIntegral(f"the Gram determinant {val} is not an integer")
        n = abs(val.numerator)
        factors = _factor_int(n)
        result["abs_value"] = n
        result["factorization"] = factors
        result["is_two_to_six"] = factors == {2: 6}
        without_ramified = {p: e for p, e in factors.items() if p != 7}
        result["ramified_part_exponent"] = factors.get(7, 0)
        result["two_to_six_after_ramified_part"] = (
            without_ramified == {2: 6} and factors.get(7, 0) == 3
        )
    else:
        result["abs_value"] = None
        result["factorization"] = None
        result["is_two_to_six"] = False
        result["ramified_part_exponent"] = None
        result["two_to_six_after_ramified_part"] = False
    return result


def _iota_b_denominators(ob: OrderBasis, b: AlgElt):
    """For each basis element x, in order, the common denominator of the
    K-coordinates of iota_b(x)."""
    for x in ob.elements:
        yield math.lcm(*(c.den for c in ob.coordinates(x.iota_b(b))))


def is_iota_b_invariant(basis: OrderBasis | None = None, b: AlgElt | None = None) -> bool:
    """Whether iota_b maps the order into itself (integral coordinates).

    The order defaults to `OrderBasis.iota_b_stable()`."""
    ob = basis if basis is not None else OrderBasis.iota_b_stable()
    belt = b if b is not None else b_element()
    return all(d == 1 for d in _iota_b_denominators(ob, belt))


def iota_b_invariance_report(basis: OrderBasis | None = None,
                             b: AlgElt | None = None) -> dict:
    """Detailed invariance diagnostics for the twisted involution.

    Records which basis elements fail to re-expand integrally, the rational
    primes occurring in coordinate denominators, and whether b and its
    adjugate lie in the order (which makes conjugation by b harmless at
    every prime not dividing nrd(b)).  The order defaults to
    `OrderBasis.iota_b_stable()`."""
    ob = basis if basis is not None else OrderBasis.iota_b_stable()
    belt = b if b is not None else b_element()
    failing: list[int] = []
    denom_primes: set[int] = set()
    for k, d in enumerate(_iota_b_denominators(ob, belt)):
        if d != 1:
            failing.append(k)
            denom_primes.update(_factor_int(d))

    def in_order(x: AlgElt) -> bool:
        return all(c.den == 1 for c in ob.coordinates(x))

    nrd = belt.reduced_norm()
    adj = belt.adjugate()
    report = {
        "invariant": not failing,
        "failing_basis_indices": failing,
        "denominator_primes": sorted(denom_primes),
        "reduced_norm_of_b": nrd,
        "b_in_order": in_order(belt),
        "adjugate_of_b_in_order": in_order(adj),
    }
    # b, adj(b) in O means b*O*adj(b) is contained in O, so conjugation by b
    # preserves the localized order at every prime not dividing nrd(b).
    if nrd.is_rational():
        q = nrd.as_rational()
        nrd_primes = set(_factor_int(q.numerator)) | set(_factor_int(q.denominator))
        report["invariant_away_from"] = sorted(nrd_primes & denom_primes)
    return report


# ---------------------------------------------------------------------------
# torsion

class TorsionReport(NamedTuple):
    allowed_orders: frozenset[int]
    excluded: dict[int, str]


def torsion_orders() -> TorsionReport:
    """Possible orders of torsion elements in the norm-1 unitary group of O.

    Cyclotomic subfields of D containing the center K = Q(sqrt(-7)) must have
    degree dividing 6 over Q and conductor divisible by 7; elements forcing
    reduced norm -1 (i.e. -1 itself, and any even order) are excluded.
    """
    allowed = {1}
    excluded: dict[int, str] = {}
    candidates = [m for m in range(2, 43) if euler_phi(m) in (1, 2, 3, 6)]
    for m in candidates:
        if m == 2:
            excluded[2] = "nrd(-1) = -1, so -1 is not a norm-1 unitary element"
        elif m % 7 != 0:
            # Q(zeta_m) must contain K: conductor divisibility
            excluded[m] = f"Q(sqrt(-7)) is not contained in Q(zeta_{m})"
        elif m % 2 == 0:
            excluded[m] = "contains -1, whose reduced norm is -1"
        else:
            allowed.add(m)
    return TorsionReport(frozenset(allowed), excluded)


def congruence_index(residue_field_size: int, algebra_degree: int) -> int:
    """Index [M^(1) : M^(1)(pi_D)] = (q^d - 1)/(q - 1)."""
    q, d = residue_field_size, algebra_degree
    if q < 2 or d < 1:
        raise ValueError("need a prime power q >= 2 and degree d >= 1")
    return (q ** d - 1) // (q - 1)


def torsion_free_check(ideal_norm: int, torsion_order: int) -> bool:
    """True when the congruence subgroup mod an ideal of this norm kills
    the torsion: the norm must not divide Phi_p(1) = p for prime order p."""
    if ideal_norm < 2:
        raise ValueError("ideal norm must be >= 2")
    # N(eta - 1) for eta a primitive p-th root of unity is Phi_p(1) = p
    cyclo_at_one = torsion_order
    return cyclo_at_one % ideal_norm != 0
