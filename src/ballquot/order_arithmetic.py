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
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .cyclotomic import CycElt, lam, lam_bar
from .cyclic_algebra import AlgElt, NotIotaInvariant, b_element


class BasisNotIntegral(ValueError):
    pass


# ---------------------------------------------------------------------------
# K = Q(sqrt(-7)) coordinate helpers.  o_K = Z[lambda], lambda = (-1+sqrt(-7))/2.

def K_coords(a: CycElt) -> tuple[Fraction, Fraction]:
    """Write an element of K as p + q*lambda (basis of o_K)."""
    if not a.in_K():
        raise ValueError("element is not in the subfield K")
    # a = p + q*lambda determines q from the zeta-coefficients: lambda has
    # coefficient pattern (0,1,1,0,1,0) in the power basis of Q(zeta_7).
    q = a.coeffs[1]
    p = a.coeffs[0]
    if _K_elt(p, q) != a:
        raise AssertionError("K coordinate extraction failed")
    return p, q


def _K_elt(p: Fraction, q: Fraction) -> CycElt:
    """p + q*lambda, with lambda = zeta + zeta^2 + zeta^4."""
    return CycElt(7, (p, q, q, 0, q, 0))


def is_K_integral(a: CycElt) -> bool:
    p, q = K_coords(a)
    return p.denominator == 1 and q.denominator == 1


def lambda_valuation(a: CycElt) -> int:
    """Valuation of a nonzero element of K at the prime (lambda) above 2."""
    if a.is_zero():
        raise ValueError("valuation of zero")
    p, q = K_coords(a)
    scale = math.lcm(p.denominator, q.denominator)
    x = a * Fraction(scale)
    v = 0
    lb = lam_bar()
    while True:
        # divide by lambda: x/lambda = x * lambda_bar / 2
        cand = x * lb * Fraction(1, 2)
        if is_K_integral(cand):
            x = cand
            v += 1
        else:
            break
    # subtract the contribution of the integer scaling: v_lambda(n) = v_2(n)
    v2 = 0
    while scale % 2 == 0:
        scale //= 2
        v2 += 1
    return v - v2


# ---------------------------------------------------------------------------

def _inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular square rational matrix, by Gauss-Jordan elimination."""
    n = len(rows)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


@dataclass(frozen=True)
class OrderBasis:
    """An o_K-basis (9 elements) of an order in D."""

    elements: tuple[AlgElt, ...]

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
        x = sum_k (p_k + q_k*lambda) * e_k."""
        cols = []
        for e in self.elements:
            for c in (e, e.scale(lam())):
                cols.append(c.x0.coeffs + c.x1.coeffs + c.x2.coeffs)
        inv = _inverse([[col[r] for col in cols] for r in range(18)])
        den = math.lcm(*(v.denominator for row in inv for v in row))
        return [[int(v * den) for v in row] for row in inv], den

    def coordinates(self, x: AlgElt) -> list[CycElt]:
        """K-coordinates of x in this basis (9 entries, elements of K)."""
        rows, den = self._coordinate_solver
        comps = (x.x0, x.x1, x.x2)
        common = math.lcm(*(c.den for c in comps))
        rhs = [a * (common // c.den) for c in comps for a in c.num]
        sol = [Fraction(sum(m * v for m, v in zip(row, rhs)), den * common) for row in rows]
        return [_K_elt(sol[2 * i], sol[2 * i + 1]) for i in range(9)]


def gram_matrix(basis: OrderBasis) -> list[list[CycElt]]:
    """G[i][j] = reduced trace of x_i * x_j, an element of K."""
    g = []
    for xi in basis.elements:
        row = []
        for xj in basis.elements:
            t = (xi * xj).reduced_trace()
            if not t.in_K():
                raise BasisNotIntegral("reduced trace landed outside K")
            row.append(t)
        g.append(row)
    return g


def _det_over_field(a: list[list[CycElt]]) -> CycElt:
    """Fraction-full Gaussian elimination determinant over Q(zeta_7)."""
    n = len(a)
    a = [row[:] for row in a]
    det = CycElt.one(7)
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            return CycElt.zero(7)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = a[col][col].inverse()
        for r in range(col + 1, n):
            if not a[r][col].is_zero():
                f = a[r][col] * inv
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def _factor_int(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    n = abs(n)
    p = 2
    while n > 1:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    return factors


def discriminant(basis: OrderBasis | None = None) -> dict:
    """Determinant of the 9x9 reduced-trace Gram matrix, with factorization.

    The determinant is computed exactly in K.  For the standard basis it is
    a rational integer; the report factors it and compares against the
    target ideal (2)^6.  The determinant picks up the cube of the relative
    discriminant of the degree-3 extension (the ideal above 7) from the
    three diagonal blocks, so the report separates that ramified part out
    instead of silently rescaling: `two_to_six_after_ramified_part` records
    whether the quotient by 7^3 generates (2)^6.
    """
    b = basis if basis is not None else OrderBasis.standard()
    g = gram_matrix(b)
    d = _det_over_field(g)
    result: dict = {"determinant": d}
    if d.is_rational():
        val = d.as_rational()
        assert val.denominator == 1
        n = abs(int(val))
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
    nrm = d.norm_K_to_Q()
    result["norm_to_Q"] = nrm
    if nrm.denominator == 1:
        result["norm_factorization"] = _factor_int(int(nrm))
    else:
        result["norm_factorization"] = None
    return result


def split_matrix_order_discriminant() -> dict:
    """Gram determinant for the standard basis of the full 3x3 matrix order.

    Diagnostic baseline: the matrix units e_ij satisfy
    tr(e_ij e_kl) = [j==k][i==l], so the Gram matrix is a permutation matrix
    and the discriminant is the unit ideal."""
    idx = [(i, j) for i in range(3) for j in range(3)]
    g = [[Fraction(1) if (a[1] == b[0] and a[0] == b[1]) else Fraction(0)
          for b in idx] for a in idx]
    rows = [row[:] for row in g]
    det = Fraction(1)
    n = 9
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return {"abs_value": abs(int(det)), "factorization": _factor_int(int(det)),
            "is_unit": abs(det) == 1}


def is_iota_b_invariant(basis: OrderBasis | None = None, b: AlgElt | None = None) -> bool:
    """Whether iota_b maps the order into itself (integral coordinates).

    The order defaults to `OrderBasis.iota_b_stable()`."""
    ob = basis if basis is not None else OrderBasis.iota_b_stable()
    belt = b if b is not None else b_element()
    if belt.iota() != belt:
        raise NotIotaInvariant("b is not iota-invariant")
    for x in ob.elements:
        y = x.iota_b(belt)
        coords = ob.coordinates(y)
        if not all(is_K_integral(c) for c in coords):
            return False
    return True


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
    for k, x in enumerate(ob.elements):
        y = x.iota_b(belt)
        bad = False
        for c in ob.coordinates(y):
            p, q = K_coords(c)
            d = math.lcm(p.denominator, q.denominator)
            if d != 1:
                bad = True
                denom_primes.update(_factor_int(d))
        if bad:
            failing.append(k)

    def in_order(x: AlgElt) -> bool:
        return all(is_K_integral(c) for c in ob.coordinates(x))

    nrd = belt.reduced_norm()
    adj = belt.inverse().scale(nrd)
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
        nrd_primes = set(_factor_int(int(nrd.as_rational())))
        report["invariant_away_from"] = sorted(nrd_primes & denom_primes)
    return report


# ---------------------------------------------------------------------------
# torsion

@dataclass(frozen=True)
class TorsionReport:
    allowed_orders: frozenset[int]
    excluded: dict[int, str]


def torsion_orders(conductor_of_center: int = 7) -> TorsionReport:
    """Possible orders of torsion elements in the norm-1 unitary group of O.

    Cyclotomic subfields of D containing the center K = Q(sqrt(-7)) must have
    degree dividing 6 over Q and conductor divisible by 7; elements forcing
    reduced norm -1 (i.e. -1 itself, and any even order) are excluded.
    """
    from .cyclotomic import euler_phi

    allowed = {1}
    excluded: dict[int, str] = {}
    candidates = [m for m in range(2, 43) if euler_phi(m) in (1, 2, 3, 6)]
    for m in candidates:
        if m == 2:
            excluded[2] = "nrd(-1) = -1, so -1 is not a norm-1 unitary element"
            continue
        if euler_phi(m) > 2 or m == conductor_of_center:
            # Q(zeta_m) must contain K: conductor divisibility
            if m % conductor_of_center != 0:
                if euler_phi(m) in (3, 6):
                    excluded[m] = f"Q(sqrt(-{conductor_of_center})) is not contained in Q(zeta_{m})"
                continue
        if m % conductor_of_center != 0:
            continue
        if m % 2 == 0:
            excluded[m] = "contains -1, whose reduced norm is -1"
            continue
        if euler_phi(m) not in (2, 6) or euler_phi(m) % 2:
            excluded[m] = f"[Q(zeta_{m}):K] does not divide 3"
            continue
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
