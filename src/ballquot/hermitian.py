"""Hermitian 3x3 forms over Q(zeta_7): exact signature and ball membership."""

from __future__ import annotations

from typing import NamedTuple

from . import Frozen, matrix3 as m3
from .cyclotomic import CycElt, zeta7
from .cyclic_algebra import AlgElt, b_element


class NotHermitian(ValueError):
    pass


class ZeroVector(ValueError):
    pass


class Signature(NamedTuple):
    positives: int
    negatives: int
    zeros: int


class HermMatrix(Frozen):
    __slots__ = _fields = ("entries",)  # m3.Mat

    def __init__(self, entries: m3.Mat) -> None:
        if m3.conj_transpose(entries) != entries:
            raise NotHermitian("matrix does not equal its conjugate transpose")
        super().__init__(entries)

    @staticmethod
    def from_alg_elt(b: AlgElt) -> "HermMatrix":
        """Matrix of an algebra element under the embedding.  The embedding is
        injective and sends iota to the conjugate transpose, so this raises
        `NotHermitian` exactly when b is not iota-invariant."""
        return HermMatrix(b.to_matrix())

    def signature(self) -> Signature:
        """Exact signature by Descartes' rule on the characteristic polynomial.

        The char poly x^3 + c2 x^2 + c1 x + c0 of a hermitian matrix has only
        real roots, so the rule is exact on each of p(x) and p(-x)."""
        c2, c1, c0 = m3.char_poly(self.entries)
        coeffs = [CycElt.one(7), c2, c1, c0]
        signs = [c.sign() for c in coeffs]
        zeros = 0
        while signs and signs[-1] == 0:
            signs.pop()
            zeros += 1
        pos = _sign_changes(signs)
        neg = _sign_changes([s * (-1) ** i for i, s in enumerate(signs)])
        return Signature(pos, neg, zeros)

    def evaluate(self, vec: tuple[CycElt, CycElt, CycElt]) -> CycElt:
        """The (real) value v* H v, as the sum of conj(v_i) (H v)_i."""
        total = CycElt.zero(7)
        for v_i, row in zip(vec, self.entries):
            hv_i = row[0] * vec[0] + row[1] * vec[1] + row[2] * vec[2]
            total = total + v_i.conjugate() * hv_i
        return total

    def in_ball(self, vec: tuple[CycElt, CycElt, CycElt]) -> bool:
        """Whether the projective point lies in the positivity ball of H."""
        if all(v.is_zero() for v in vec):
            raise ZeroVector("projective point needs a nonzero representative")
        return self.evaluate(vec).sign() > 0


def _sign_changes(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for i in range(len(nz) - 1) if nz[i] * nz[i + 1] < 0)


def H_b() -> HermMatrix:
    """The hermitian form induced by b = tr(lambda) + lambda_bar u + lambda_bar u^2."""
    return HermMatrix.from_alg_elt(b_element())


def H_c() -> HermMatrix:
    """The diagonal form of c = zeta + zeta^{-1}: diag(2cos 2pi/7, 2cos 4pi/7, 2cos 8pi/7)."""
    z = zeta7()
    c = z + z.galois(6)
    return HermMatrix.from_alg_elt(AlgElt.from_L(c))


def standard_basis() -> list[tuple[CycElt, CycElt, CycElt]]:
    one, zero = CycElt.one(7), CycElt.zero(7)
    return [
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
    ]
