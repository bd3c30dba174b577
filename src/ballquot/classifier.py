"""Surface invariants, the fake-plane predicate, Kodaira dimension rules,
and elliptic fibration bookkeeping.

The classifier is a rule-exclusion engine over the small invariant range
occurring here (chi = 1, q = 0, plus the all-zero rational diagnostic); each
excluded Kodaira dimension records which rule fired so the decision can be
audited.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import Frozen, _require_int


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
    """Invariants of a smooth compact 2-ball quotient: its signature is c2/3,
    so c1^2 = 3 c2 and chi = c2/3 (`invariants_from_resolution`)."""
    c2 = Fraction(c2)
    if c2 <= 0:
        raise ValueError("a smooth compact ball quotient has c2 > 0")
    return invariants_from_resolution(c2, c2 / 3, q_irr, plurigenera, minimal=True)


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

class KodairaFiber(Frozen):
    __slots__ = _fields = ("kind", "multiplicity", "components")

    def __init__(self, kind: str, multiplicity: int = 1, components: tuple[str, ...] = ()) -> None:
        # n in "I_n" is plain ASCII decimal: int() would also take a sign, spaces,
        # leading zeros and other scripts' digits
        if kind != "smooth" and not (isinstance(kind, str) and re.fullmatch("I_[1-9][0-9]*", kind)):
            raise ValueError(f"unsupported fiber kind {kind}")
        _require_int(multiplicity, "multiplicity")
        if multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        if not isinstance(components, tuple):
            raise TypeError(f"components must be a tuple of str, not {type(components).__name__}")
        for c in components:
            if not isinstance(c, str):
                raise TypeError(f"a fiber component must be a str, not {type(c).__name__}")
        super().__init__(kind, multiplicity, components)

    def euler(self) -> int:
        if self.kind == "smooth":
            return 0
        return int(self.kind[2:])


def fibration_euler_check(fibers: list[KodairaFiber], c2: Fraction) -> bool:
    return sum(f.euler() for f in fibers) == Fraction(c2)


def fiber_component_accounting(fibers: list[KodairaFiber],
                               chains: list[tuple[int, ...]]) -> bool:
    """The E_-named fiber components are the (-2)-curves of the chains, each in
    exactly one fiber, with E_i_j curve j of the chain of point i (from 1), and
    each I_n fiber lists n components.  For kodaira dimension 1, K_Y is
    numerically a positive multiple of the fiber, and a chain curve E has
    K_Y.E = -2 - E^2: it lies in a fiber exactly when it is a (-2)-curve."""
    placed: Counter[str] = Counter()
    for f in fibers:
        placed.update(c for c in f.components if c.startswith("E_"))
        if f.kind.startswith("I_") and f.components:
            if len(f.components) != f.euler():
                return False
    return placed == Counter(f"E_{i}_{j}" for i, chain in enumerate(chains, 1)
                             for j, b in enumerate(chain, 1) if b == -2)
