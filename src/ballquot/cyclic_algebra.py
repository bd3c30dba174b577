"""The cyclic division algebra D = D(L, sigma, alpha) over K = Q(sqrt(-7)).

Elements are triples x0 + x1*u + x2*u^2 over L = Q(zeta_7), with
u^3 = alpha = lambda/lambda_bar and a*u = u*a^sigma.  The canonical
involution of second kind sends a |-> conj(a) on L and u |-> conj(alpha)*u^2.

Every x in D satisfies its reduced characteristic polynomial
t^3 - T(x) t^2 + S(x) t - nrd(x) over K (Reiner, Maximal Orders, section 9),
so the reduced norm, the adjugate x^# = x^2 - T(x) x + S(x) and the inverse
x^# / nrd(x) all come from algebra products and the reduced trace.  The
embedding of D into M_3(L) serves only the hermitian forms.

Where only the L-component of a product is read (the reduced norm x x^#,
and the reduced trace trd(xy) of the Gram matrix), `product_x0` gives it
from the three of the nine component products that reach it:
(xy)_0 = x0 y0 + alpha (x1 sigma^-1(y2) + x2 sigma^-2(y1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import matrix3 as m3
from .cyclotomic import CycElt, alpha, lam, lam_bar


class NotInvertible(ValueError):
    pass


class NotIotaInvariant(ValueError):
    pass


@dataclass(frozen=True)
class AlgElt:
    """x0 + x1*u + x2*u^2 with xi in L = Q(zeta_7)."""

    x0: CycElt
    x1: CycElt
    x2: CycElt

    @staticmethod
    def from_L(a: CycElt) -> "AlgElt":
        z = CycElt.zero(7)
        return AlgElt(a, z, z)

    @staticmethod
    def u() -> "AlgElt":
        z = CycElt.zero(7)
        return AlgElt(z, CycElt.one(7), z)

    @staticmethod
    def zero() -> "AlgElt":
        z = CycElt.zero(7)
        return AlgElt(z, z, z)

    @staticmethod
    def one() -> "AlgElt":
        return AlgElt.from_L(CycElt.one(7))

    def __add__(self, o: "AlgElt") -> "AlgElt":
        return AlgElt(self.x0 + o.x0, self.x1 + o.x1, self.x2 + o.x2)

    def __neg__(self) -> "AlgElt":
        return AlgElt(-self.x0, -self.x1, -self.x2)

    def __sub__(self, o: "AlgElt") -> "AlgElt":
        return self + (-o)

    def __mul__(self, o: "AlgElt") -> "AlgElt":
        # a u = u a^sigma, so u^i y = y^(sigma^-i) u^i and
        # x_i u^i * y_j u^j = x_i y_j^(sigma^-i) u^(i+j), with u^3 = alpha.
        x = (self.x0, self.x1, self.x2)
        y = (o.x0, o.x1, o.x2)
        low = [CycElt.zero(7)] * 3
        high = [CycElt.zero(7)] * 2
        for i in range(3):
            if x[i].is_zero():
                continue
            for j in range(3):
                if y[j].is_zero():
                    continue
                term = x[i] * (y[j].galois(pow(4, i, 7)) if i else y[j])
                if i + j < 3:
                    low[i + j] = low[i + j] + term
                else:
                    high[i + j - 3] = high[i + j - 3] + term
        al = alpha()
        return AlgElt(low[0] + al * high[0], low[1] + al * high[1], low[2])

    def product_x0(self, o: "AlgElt") -> CycElt:
        """(self * o).x0, without the other two components: the terms x_i u^i * y_j u^j
        with i + j in {0, 3}, as in `__mul__`."""
        high = self.x1 * o.x2.galois(4) + self.x2 * o.x1.galois(2)
        return self.x0 * o.x0 + alpha() * high

    def scale(self, c: CycElt | Fraction | int) -> "AlgElt":
        """c * self for c in L or Q: c multiplies each component from the left."""
        return AlgElt(c * self.x0, c * self.x1, c * self.x2)

    def is_zero(self) -> bool:
        return self.x0.is_zero() and self.x1.is_zero() and self.x2.is_zero()

    # -- reduced characteristic polynomial

    def reduced_trace(self) -> CycElt:
        return self.x0.trace_to_K()

    def adjugate(self) -> "AlgElt":
        """x^# = x^2 - T(x) x + S(x), with S(x) = (T(x)^2 - T(x^2)) / 2, so x x^# = nrd(x)."""
        t = self.reduced_trace()
        sq = self * self
        s = (t * t - sq.reduced_trace()) * Fraction(1, 2)
        return sq - self.scale(t) + AlgElt.from_L(s)

    def reduced_norm(self) -> CycElt:
        """nrd(x) in K: the L-component of x x^#."""
        return self.product_x0(self.adjugate())

    def inverse(self) -> "AlgElt":
        adj = self.adjugate()
        nrd = self.product_x0(adj)
        if nrd.is_zero():
            raise NotInvertible("zero is not invertible")
        return adj.scale(nrd.inverse())

    def to_matrix(self) -> m3.Mat:
        """Embedding into M_3(L): a |-> diag(a, a^s, a^ss), u |-> companion of u^3 = alpha.

        Entry (i, j) is sigma^i(x_((i-j) mod 3)), times alpha above the diagonal."""
        x, al = (self.x0, self.x1, self.x2), alpha()
        return m3.mat([[(al * x[(i - j) % 3] if i < j else x[(i - j) % 3]).galois(pow(2, i, 7))
                        for j in range(3)] for i in range(3)])

    # -- involutions

    def iota(self) -> "AlgElt":
        """Canonical involution of second kind: conj on L, u -> conj(alpha) u^2.

        With sigma = (zeta -> zeta^2) and conj(alpha) * alpha = 1,
        iota(x0 + x1 u + x2 u^2)
            = conj(x0) + conj(alpha) sigma^2(conj(x2)) u + conj(alpha) sigma(conj(x1)) u^2,
        where sigma^2 o conj is zeta -> zeta^3 and sigma o conj is zeta -> zeta^5.
        """
        albar = alpha().conjugate()
        return AlgElt(self.x0.conjugate(), albar * self.x2.galois(3), albar * self.x1.galois(5))

    def iota_b(self, b: "AlgElt") -> "AlgElt":
        """Twisted involution x -> b * iota(x) * b^{-1}; b must be iota-invariant."""
        return b * self.iota() * _invariant_inverse(b)

    def __str__(self) -> str:
        return f"({self.x0}) + ({self.x1})*u + ({self.x2})*u^2"


@lru_cache(maxsize=16)
def _invariant_inverse(b: AlgElt) -> AlgElt:
    """b^-1 for a nonzero iota-invariant b, checked and computed once per b."""
    if b.is_zero():
        raise NotInvertible("b must be invertible")
    if b.iota() != b:
        raise NotIotaInvariant("b is not iota-invariant")
    return b.inverse()


def b_element() -> AlgElt:
    """The distinguished iota-invariant b = tr(lambda) + lambda_bar u + lambda_bar u^2."""
    tr = lam() + lam_bar()  # trace of lambda from K to Q, = -1
    return AlgElt(tr, lam_bar(), lam_bar())


def is_division_algebra(alpha_elt: CycElt | None = None) -> tuple[bool, dict]:
    """Decide division-ness of D(L, sigma, alpha) via the local norm test at 2.

    alpha is a non-norm for N_{L/K} iff its valuation at the degree-3 inert
    prime (lambda) of K is not divisible by 3 (L/K is unramified at lambda,
    so local norms are exactly the elements of valuation divisible by the
    residue degree).  Returns (verdict, witness dict).
    """
    from .order_arithmetic import lambda_valuation

    a = alpha_elt if alpha_elt is not None else alpha()
    if not a.in_K():
        raise ValueError("alpha must lie in the center K")
    v = lambda_valuation(a)
    residue_degree = 1
    k = 2 % 7
    while k != 1:  # multiplicative order of 2 mod 7
        k = (k * 2) % 7
        residue_degree += 1
    non_norm = v % residue_degree != 0
    witness = {
        "prime": "lambda = (-1+sqrt(-7))/2 above 2",
        "valuation_of_alpha": v,
        "residue_degree_in_L_over_K": residue_degree,
        "non_norm": non_norm,
        "reason": f"v(alpha) = {v} is {'not ' if non_norm else ''}divisible by {residue_degree}",
    }
    return non_norm, witness
