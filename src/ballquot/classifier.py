"""Surface invariants, the fake-plane predicate, Kodaira dimension rules,
and elliptic fibration bookkeeping.

The classifier is a rule-exclusion engine over the small invariant range
occurring here (chi = 1, q = 0, plus the all-zero rational diagnostic); each
excluded Kodaira dimension records which rule fired so the decision can be
audited.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import validated


class Ambiguous(ValueError):
    pass


class SurfaceInvariants(NamedTuple):
    c2: Fraction
    c1_sq: Fraction
    q_irr: Fraction
    p_g: Fraction
    chi: Fraction
    signature: Fraction
    plurigenera: dict[int, int]
    minimal: bool = False


def ball_quotient_invariants(c2: Fraction, q_irr: Fraction,
                             plurigenera: dict[int, int] | None = None) -> SurfaceInvariants:
    """Invariants of a smooth compact 2-ball quotient: c1^2 = 3 c2,
    chi = signature = c2/3, p_g = chi - 1 + q."""
    c2 = Fraction(c2)
    if c2 <= 0:
        raise ValueError("a smooth compact ball quotient has c2 > 0")
    q = Fraction(q_irr)
    chi = c2 / 3
    return SurfaceInvariants(
        c2=c2, c1_sq=3 * c2, q_irr=q, p_g=chi - 1 + q, chi=chi,
        signature=c2 / 3, plurigenera=dict(plurigenera or {}), minimal=True)


def invariants_from_resolution(c2: Fraction, signature: Fraction,
                               q_irr: Fraction,
                               plurigenera: dict[int, int] | None = None,
                               minimal: bool = False) -> SurfaceInvariants:
    """Invariants of a resolved quotient from its Euler number and signature,
    using the signature identity c1^2 = 3 sign + 2 c2 and Noether."""
    c2 = Fraction(c2)
    sign = Fraction(signature)
    c1_sq = 3 * sign + 2 * c2
    chi = (c1_sq + c2) / 12
    q = Fraction(q_irr)
    return SurfaceInvariants(
        c2=c2, c1_sq=c1_sq, q_irr=q, p_g=chi - 1 + q, chi=chi,
        signature=sign, plurigenera=dict(plurigenera or {}), minimal=minimal)


def is_fake_projective_plane(s: SurfaceInvariants, kodaira_dim: int) -> bool:
    return (s.c2 == 3 and s.c1_sq == 9 and s.q_irr == 0 and s.p_g == 0
            and kodaira_dim == 2)


def kodaira_classify(s: SurfaceInvariants) -> tuple[int, dict[int, str]]:
    """Kodaira dimension with the rule that excluded each other value.

    Covers chi = 1, q = 0 surfaces plus the all-plurigenera-zero case."""
    if 2 not in s.plurigenera or 3 not in s.plurigenera:
        raise ValueError("need P_2 and P_3")
    p = s.plurigenera
    trace: dict[int, str] = {}
    candidates = {-1, 0, 1, 2}  # -1 stands for kodaira dimension -infinity

    if any(v > 0 for v in p.values()):
        trace[-1] = "some plurigenus is positive, so the surface is not ruled or rational"
        candidates.discard(-1)
    if p[2] < 2:
        trace[2] = "a general type surface with chi >= 1 has P_2 >= 2 by Riemann-Roch"
        candidates.discard(2)
    if any(v > 1 for v in p.values()):
        trace[0] = "kodaira dimension 0 forces every plurigenus to be at most 1"
        candidates.discard(0)
    elif s.q_irr == 0 and s.p_g == 0 and p[3] == 1:
        trace[0] = ("with p_g = q = 0 only an Enriques surface has kodaira "
                    "dimension 0, and an Enriques surface has P_3 = 0")
        candidates.discard(0)
    if all(v == 0 for v in p.values()):
        trace[1] = "all plurigenera vanish, excluding positive kodaira dimension"
        candidates.discard(1)
        trace[0] = trace.get(0) or "all plurigenera vanish"
        candidates.discard(0)
    if s.minimal and s.c1_sq > 0 and 1 in candidates:
        trace[1] = "a minimal elliptic surface has c1^2 = 0, but c1^2 > 0 here"
        candidates.discard(1)

    if len(candidates) != 1:
        raise Ambiguous(f"surviving kodaira dimensions {sorted(candidates)}; trace {trace}")
    (kod,) = candidates
    return kod, trace


# ---------------------------------------------------------------------------
# elliptic fibrations

@validated
class KodairaFiber(NamedTuple):
    kind: str                 # "I_n" with n >= 1, or "smooth"
    multiplicity: int = 1
    components: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind != "smooth":
            if not (self.kind.startswith("I_") and int(self.kind[2:]) >= 1):
                raise ValueError(f"unsupported fiber kind {self.kind}")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")

    def euler(self) -> int:
        if self.kind == "smooth":
            return 0
        return int(self.kind[2:])


def fibration_euler_check(fibers: list[KodairaFiber], expected_c2: Fraction) -> bool:
    return sum(f.euler() for f in fibers) == Fraction(expected_c2)


def fiber_component_accounting(fibers: list[KodairaFiber],
                               exceptional_minus2: list[str],
                               exceptional_minus3: list[str]) -> bool:
    """Every (-2)-curve of the resolution sits in exactly one fiber, no
    (-3)-curve sits in any fiber, and singular fiber component counts match
    the fiber types."""
    placed: dict[str, int] = {}
    for f in fibers:
        for comp in f.components:
            placed[comp] = placed.get(comp, 0) + 1
        if f.kind.startswith("I_") and f.components:
            if len(f.components) != f.euler():
                return False
    for c in exceptional_minus2:
        if placed.get(c, 0) != 1:
            return False
    for c in exceptional_minus3:
        if c in placed:
            return False
    return True
