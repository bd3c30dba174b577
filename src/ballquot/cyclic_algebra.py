"""The cyclic division algebra D = D(L, sigma, alpha) over K = Q(sqrt(-7)).

Elements are x0 + x1*u + x2*u^2 with xi in L = Q(zeta_7), u^3 = alpha =
lambda/lambda_bar = (-2 - lambda)/2 and a*u = u*a^sigma; the canonical
involution of second kind sends a |-> conj(a) on L and u |-> conj(alpha)*u^2.
The reduced norm, the adjugate x^# = x^2 - T(x) x + S(x) and the inverse
x^#/nrd(x) come from products and the reduced trace, by the reduced
characteristic polynomial over K (Reiner, Maximal Orders, section 9).

An element is one integer vector: the 18 power-basis numerators of x0, x1,
x2 over one positive denominator, gcd 1.  `==`, `hash`, sums, the reduced
trace and `numerators()`, the order layer's input, read it as it is.
Products, `scale` and `iota` sum in Z[C_7] through `cyclotomic.convolve`,
whose index map b -> k*b mod 7 is each Galois map they need; alpha and
conj(alpha) enter as integer vectors over 2.  A product lays its sums out as
5 x 7 slots, by u-degree i + j and then by slot of Z[C_7], and makes one
kernel call per nonzero x_i: with all of y's numerators (for `product_x0`,
those of the y_j with i + j = 0 mod 3) and a cached table whose slots hold
both sigma^-i and the u-degree.  At most two more calls multiply the sums
of u-degree 3 and 4 by alpha, as u^3 = alpha.
Each result component is folded by `cyclotomic.fold`, and one gcd
canonicalises the vector.  x0, x1, x2 are `CycElt`s read off the vector on
each read (`to_matrix`, `str`, `repr`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import lcm

from . import Frozen, _lowest_terms, matrix3 as m3
from .cyclotomic import (CycElt, alpha, convolve, fold, index_map, lam, lam_bar,
                         lambda_valuation, trace_to_K)


class NotInvertible(ValueError):
    pass


class NotIotaInvariant(ValueError):
    pass


class NotInL(TypeError):
    """Raised when a component or scalar of an `AlgElt` is not a `CycElt` of modulus 7."""


class AlgElt(Frozen):
    """x0 + x1*u + x2*u^2 with xi in L = Q(zeta_7), held as one integer vector."""

    __slots__ = _fields = ("_v", "_d")  # the 18 numerators over their denominator, gcd 1

    def __init__(self, x0: CycElt, x1: CycElt, x2: CycElt) -> None:
        parts = [_require_L(c, name) for name, c in zip(("x0", "x1", "x2"), (x0, x1, x2))]
        d = lcm(x0.den, x1.den, x2.den)  # with each part canonical, the gcd is 1
        super().__init__(tuple([a * (d // c.den) for c in parts for a in c.num]), d)

    # x0, x1 and x2, built from the vector on each read: no caller reads one twice
    x0, x1, x2 = (property(lambda self, i=i: CycElt.from_numerators(7, self._v[i:i + 6], self._d))
                  for i in (0, 6, 12))

    def __repr__(self) -> str:
        return f"AlgElt(x0={self.x0!r}, x1={self.x1!r}, x2={self.x2!r})"

    @staticmethod
    def from_L(a: CycElt) -> "AlgElt":
        return AlgElt(a, CycElt.zero(7), CycElt.zero(7))

    @staticmethod
    def u() -> "AlgElt":
        return AlgElt(CycElt.zero(7), CycElt.one(7), CycElt.zero(7))

    @staticmethod
    def zero() -> "AlgElt":
        return AlgElt.from_L(CycElt.zero(7))

    @staticmethod
    def one() -> "AlgElt":
        return AlgElt.from_L(CycElt.one(7))

    def __add__(self, o: "AlgElt") -> "AlgElt":
        if not isinstance(o, AlgElt):
            return NotImplemented
        d = lcm(self._d, o._d)  # over the least common denominator
        fx, fy = d // self._d, d // o._d
        return _canonical([a * fx + b * fy for a, b in zip(self._v, o._v)], d)

    def __neg__(self) -> "AlgElt":
        return _canonical([-a for a in self._v], self._d)

    def __sub__(self, o: "AlgElt") -> "AlgElt":
        return self + (-o) if isinstance(o, AlgElt) else NotImplemented

    def __mul__(self, o: "AlgElt") -> "AlgElt":
        return _folded(*_product(self, o, (0, 1, 2))) if isinstance(o, AlgElt) else NotImplemented

    def product_x0(self, o: "AlgElt") -> CycElt:
        """(self * o).x0 alone: the terms x_i u^i * y_j u^j of `__mul__` with i + j in {0, 3}."""
        (acc,), d = _product(self, o, (0,))
        return CycElt.from_group_ring(7, acc, d)

    def scale(self, c: CycElt | Fraction | int) -> "AlgElt":
        """c * self for c in L or Q: c multiplies each component from the left."""
        c = _require_L(c if isinstance(c, CycElt) else CycElt.rational(7, c), "the scalar")
        return _folded([convolve([0] * 7, c.num, p, _SIGMA_INV[0]) for p in _parts(self)],
                       c.den * self._d)

    def is_zero(self) -> bool:
        return not any(self._v)

    def numerators(self) -> tuple[tuple[int, ...], int]:
        """The element's own vector: the numerators of x0, x1, x2 over their one denominator."""
        return self._v, self._d

    def reduced_trace(self) -> CycElt:
        return trace_to_K(self._v[:6], self._d)

    def adjugate(self) -> "AlgElt":
        """x^# = x^2 - T(x) x + S(x), with S(x) = (T(x)^2 - T(x^2)) / 2, so x x^# = nrd(x)."""
        t, sq = self.reduced_trace(), self * self
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

    def iota(self) -> "AlgElt":
        """Canonical involution of second kind: conj on L, u -> conj(alpha) u^2, so
        iota(x0 + x1 u + x2 u^2) = conj(x0) + conj(alpha) sigma^2(conj(x2)) u
        + conj(alpha) sigma(conj(x1)) u^2, sigma^2 o conj: zeta -> zeta^3, sigma o conj: zeta^5."""
        (num, t), (x0, x1, x2) = _twists()[1], _parts(self)
        return _folded([convolve([0] * 7, (t,), x0, index_map(7, 6)),
                        convolve([0] * 7, num, x2, index_map(7, 3)),
                        convolve([0] * 7, num, x1, index_map(7, 5))], t * self._d)

    def iota_b(self, b: "AlgElt") -> "AlgElt":
        """Twisted involution x -> b * iota(x) * b^{-1}; b must be iota-invariant."""
        return b * self.iota() * _invariant_inverse(b)

    def __str__(self) -> str:
        return f"({self.x0}) + ({self.x1})*u + ({self.x2})*u^2"


# ---------------------------------------------------------------------------
# the vector of an element, and components of L as integer vectors of Z[C_7]

_SIGMA_INV = tuple(index_map(7, 4 ** i % 7) for i in range(3))  # sigma^-i: zeta -> zeta^(4^i)


def _require_L(c, what: str) -> CycElt:
    if not isinstance(c, CycElt) or c.modulus != 7:
        kind = f"modulus {c.modulus}" if isinstance(c, CycElt) else type(c).__name__
        raise NotInL(f"{what} must be a CycElt of modulus 7, not {kind}")
    return c


def _canonical(v: list[int], d: int) -> AlgElt:
    """The element with numerators v over d > 0, both divided by their gcd."""
    v, d = _lowest_terms(v, d)
    x = object.__new__(AlgElt)
    object.__setattr__(x, "_v", v)
    object.__setattr__(x, "_d", d)
    return x


def _parts(x: AlgElt) -> tuple[tuple[int, ...], ...]:
    v = x._v
    return v[:6], v[6:12], v[12:]


def _folded(accs: list[list[int]], d: int) -> AlgElt:
    """The element whose components are the images of three vectors of Z[C_7] over d."""
    return _canonical(fold(7, accs[0]) + fold(7, accs[1]) + fold(7, accs[2]), d)


@cache
def _twists() -> tuple[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]]:
    """alpha and conj(alpha), each as power-basis numerators over its denominator."""
    a = alpha()
    return tuple((c.num, c.den) for c in (a, a.conjugate()))


@cache
def _product_table(i: int, components) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """(start, stop, rows) for x_i's terms of a product with the given components,
    (0, 1, 2) or (0,): y's vector meets x_i in its numerators start..stop-1, those
    of the y_j with (i + j) mod 3 a component, and row a sends numerator b of y_j
    to slot 7*(i + j) + sigma^-i(a, b) of the 5 x 7 sums by u-degree i + j."""
    js = range(3) if len(components) == 3 else [(components[0] - i) % 3]
    sigma = _SIGMA_INV[i]
    rows = tuple(tuple(7 * (i + j) + sigma[a][b] for j in js for b in range(6))
                 for a in range(6))
    return 6 * js[0], 6 * js[-1] + 6, rows


def _product(x: AlgElt, y: AlgElt, components) -> tuple[list[list[int]], int]:
    """The given components of x * y in Z[C_7] over one denominator: x_i u^i * y_j u^j =
    x_i y_j^(sigma^-i) u^(i+j), u^3 = alpha, so component m sums the terms with
    i + j = m, plus alpha times those with i + j = m + 3.  Each nonzero x_i is one
    kernel call, whose table reads both sigma^-i and the u-degree."""
    v, sums = y._v, [0] * 35  # 7 slots of Z[C_7] for each u-degree i + j < 5
    for i, p in enumerate(_parts(x)):
        if any(p):
            start, stop, table = _product_table(i, components)
            convolve(sums, p, v[start:stop], table)
    if not any(sums[21:]):  # no term reaches u^3 = alpha
        return [sums[7 * m:7 * m + 7] for m in components], x._d * y._d
    (num, t), accs = _twists()[0], []
    for m in components:
        accs.append([t * a for a in sums[7 * m:7 * m + 7]])
        wrap = sums[7 * m + 21:7 * m + 28]
        if any(wrap):  # empty for m = 2
            convolve(accs[-1], num, wrap, _SIGMA_INV[0])  # sigma^0 is the identity
    return accs, t * x._d * y._d


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
