"""The cyclic division algebra D = D(L, sigma, alpha) over K = Q(sqrt(-7)).

Elements are triples x0 + x1*u + x2*u^2 over L = Q(zeta_7), with
u^3 = alpha = lambda/lambda_bar = (-2 - lambda)/2 (closed forms in K, from the
field layer) and a*u = u*a^sigma.  The canonical involution of second kind
sends a |-> conj(a) on L and u |-> conj(alpha)*u^2.

Every x in D satisfies its reduced characteristic polynomial
t^3 - T(x) t^2 + S(x) t - nrd(x) over K (Reiner, Maximal Orders, section 9),
so the reduced norm, the adjugate x^# = x^2 - T(x) x + S(x) and the inverse
x^# / nrd(x) all come from algebra products and the reduced trace.  The
embedding of D into M_3(L) serves only the hermitian forms.

Where only the L-component of a product is read (the reduced norm x x^#,
and the reduced trace trd(xy) of the Gram matrix), `product_x0` gives it
from the three of the nine component products that reach it:
(xy)_0 = x0 y0 + alpha (x1 sigma^-1(y2) + x2 sigma^-2(y1)).

The product, `product_x0` and `iota` share the one integer kernel of the
field layer, `cyclotomic.convolve` over the group ring Z[C_7] =
Z[x]/(x^7 - 1), which maps onto Z[zeta].  Each component enters as its
power-basis numerators over the operand's common denominator.  Every Galois
map the three need (sigma^-i: zeta -> zeta^(4^i), conj: zeta -> zeta^6, and
zeta -> zeta^3, zeta^5 for iota) is the kernel's index map b -> k*b mod 7,
applied inside the convolution.  u^3 = alpha enters as alpha's integer
vector (-2, -1, -1, 0, -1, 0) over its denominator 2, and conj(alpha)
likewise, both read once from `alpha()`.  Each output component goes back to
the power basis through `CycElt.from_group_ring`, canonicalised once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import lcm

from . import Frozen, matrix3 as m3
from .cyclotomic import (UNIT, CycElt, alpha, convolve, index_map, lam, lam_bar,
                         lambda_valuation)


class NotInvertible(ValueError):
    pass


class NotIotaInvariant(ValueError):
    pass


class AlgElt(Frozen):
    """x0 + x1*u + x2*u^2 with xi in L = Q(zeta_7)."""

    _fields = ("x0", "x1", "x2")  # each a CycElt; equality, hash and repr read these
    __slots__ = _fields + ("_numerators",)  # `numerators()`, built on first use

    def __init__(self, x0: CycElt, x1: CycElt, x2: CycElt) -> None:
        setter = object.__setattr__
        setter(self, "x0", x0)
        setter(self, "x1", x1)
        setter(self, "x2", x2)
        setter(self, "_numerators", None)

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
        if not isinstance(o, AlgElt):
            return NotImplemented
        return AlgElt(self.x0 + o.x0, self.x1 + o.x1, self.x2 + o.x2)

    def __neg__(self) -> "AlgElt":
        return AlgElt(-self.x0, -self.x1, -self.x2)

    def __sub__(self, o: "AlgElt") -> "AlgElt":
        if not isinstance(o, AlgElt):
            return NotImplemented
        return self + (-o)

    def __mul__(self, o: "AlgElt") -> "AlgElt":
        if not isinstance(o, AlgElt):
            return NotImplemented
        return AlgElt(*_product(self, o, (0, 1, 2)))

    def product_x0(self, o: "AlgElt") -> CycElt:
        """(self * o).x0, without the other two components: the terms x_i u^i * y_j u^j
        with i + j in {0, 3}, as in `__mul__`."""
        return _product(self, o, (0,))[0]

    def scale(self, c: CycElt | Fraction | int) -> "AlgElt":
        """c * self for c in L or Q: c multiplies each component from the left."""
        return AlgElt(c * self.x0, c * self.x1, c * self.x2)

    def is_zero(self) -> bool:
        return self.x0.is_zero() and self.x1.is_zero() and self.x2.is_zero()

    def numerators(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The power-basis numerators of x0, x1, x2 over their least common
        denominator, built once per element."""
        r = self._numerators
        if r is None:
            comps = (self.x0, self.x1, self.x2)
            den = lcm(*(c.den for c in comps))
            r = tuple(c.num if c.den == den else tuple(a * (den // c.den) for a in c.num)
                      for c in comps), den
            object.__setattr__(self, "_numerators", r)
        return r

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
        _, conj_twist = _twists()
        conj, conj3, conj5 = index_map(7, 6), index_map(7, 3), index_map(7, 5)
        return AlgElt(_component([(UNIT, self.x0.num, conj)], (), None, self.x0.den),
                      _component((), [(UNIT, self.x2.num, conj3)], conj_twist, self.x2.den),
                      _component((), [(UNIT, self.x1.num, conj5)], conj_twist, self.x1.den))

    def iota_b(self, b: "AlgElt") -> "AlgElt":
        """Twisted involution x -> b * iota(x) * b^{-1}; b must be iota-invariant."""
        return b * self.iota() * _invariant_inverse(b)

    def __str__(self) -> str:
        return f"({self.x0}) + ({self.x1})*u + ({self.x2})*u^2"


# ---------------------------------------------------------------------------
# components of L as integer vectors of Z[C_7] = Z[x]/(x^7 - 1)

_SIGMA_INV = tuple(index_map(7, 4 ** i % 7) for i in range(3))  # sigma^-i: zeta -> zeta^(4^i)


@cache
def _twists() -> tuple[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]]:
    """alpha and conj(alpha), each as power-basis numerators over its denominator."""
    a = alpha()
    b = a.conjugate()
    return (a.num, a.den), (b.num, b.den)


def _component(plain, twisted, twist, den: int) -> CycElt:
    """(sum of p * sigma(q) over `plain` + twist * the same sum over `twisted`) / den,
    an element of L from terms (p, q, sigma) of integer vectors and index maps; the
    twist is (numerators, denominator), or None when nothing is twisted."""
    acc = [0] * 7
    for p, q, sigma in plain:
        convolve(acc, p, q, sigma)
    if twisted:
        high = [0] * 7
        for p, q, sigma in twisted:
            convolve(high, p, q, sigma)
        num, twist_den = twist
        acc = [twist_den * v for v in acc]
        convolve(acc, num, high, _SIGMA_INV[0])  # sigma^0 is the identity
        den *= twist_den
    return CycElt.from_group_ring(7, acc, den)


def _product(x: AlgElt, y: AlgElt, components) -> list[CycElt]:
    """The given components of x * y.  a u = u a^sigma, so u^i y = y^(sigma^-i) u^i
    and x_i u^i * y_j u^j = x_i y_j^(sigma^-i) u^(i+j), with u^3 = alpha."""
    (xs, dx), (ys, dy) = x.numerators(), y.numerators()
    terms = [[] for _ in range(6)]  # by i + j; none at 5, so component 2 has no twist
    for i, p in enumerate(xs):
        if any(p):
            for j, q in enumerate(ys):
                if any(q):
                    terms[i + j].append((p, q, _SIGMA_INV[i]))
    twist, _ = _twists()
    return [_component(terms[m], terms[m + 3], twist, dx * dy) for m in components]


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
