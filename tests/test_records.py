"""The package's immutable records: NamedTuples for plain data, `Frozen`
records for data that checks its fields in its constructor and for the
three with arithmetic, and the class sum of the dimension formula against
its direct expression."""

import math
from fractions import Fraction

import pytest

from ballquot import classifier as cl
from ballquot import cyclic_algebra as ca
from ballquot import dimension as dim
from ballquot import hermitian as hm
from ballquot import lfunctions as lf
from ballquot import order_arithmetic as oa
from ballquot import report as rpt
from ballquot import singularities as sg
from ballquot.cyclotomic import CycElt, zeta7
from ballquot.symreal import PI, SQRT7, Interval, SymbolicReal

ONE7 = CycElt.one(7)

RECORDS = {
    "Interval": (lambda: Interval(Fraction(1), Fraction(2)), "a"),
    "CycElt": (zeta7, "num"),
    "SymbolicReal": (lambda: PI * SQRT7, "coeff"),
    "AlgElt": (ca.b_element, "x0"),
    "FixedPointClass": (lambda: dim.build_gamma_dataset().classes[0], "r"),
    "ClassDataset": (dim.build_gamma_dataset, "label"),
    "Signature": (lambda: hm.H_b().signature(), "positives"),
    "HermMatrix": (hm.H_b, "entries"),
    "DirichletCharacter": (lambda: lf.DirichletCharacter(-7), "discriminant"),
    "OrderBasis": (oa.OrderBasis.standard, "elements"),
    "TorsionReport": (oa.torsion_orders, "excluded"),
    "CyclicSingularity": (lambda: sg.CyclicSingularity(7, 3), "n"),
    "HJChain": (lambda: sg.hj_expand(sg.CyclicSingularity(7, 3)), "self_intersections"),
    "OrbifoldSurface": (lambda: sg.OrbifoldSurface(Fraction(3), Fraction(1), ()), "euler"),
    "SurfaceInvariants": (lambda: cl.ball_quotient_invariants(Fraction(3), Fraction(0)),
                          "plurigenera"),
    "KodairaFiber": (lambda: cl.KodairaFiber("I_3"), "kind"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_cannot_be_changed(name):
    build, field = RECORDS[name]
    x = build()
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        setattr(x, "extra", None)
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert type(x).__name__ == name


def test_a_cached_property_still_caches_on_an_immutable_order_basis():
    basis = oa.OrderBasis.standard()
    assert basis._coordinate_solver is basis._coordinate_solver
    assert basis.coordinates(basis.elements[4])[4] == ONE7


def test_equal_values_hash_equal():
    b = ca.b_element()
    b_again = b.iota()  # b is iota-invariant, but built by another path
    assert b_again is not b and b_again == b and hash(b_again) == hash(b)
    assert ca._invariant_inverse(b_again) is ca._invariant_inverse(b)
    assert ca.AlgElt.one() == ca.AlgElt.from_L(ONE7) != ca.AlgElt.u()

    x, y = PI * SQRT7, SQRT7 * PI
    assert x == y and hash(x) == hash(y)
    z = SymbolicReal.term(2, 1, 3)  # 2 pi 7^(3/2) = 14 pi 7^(1/2)
    assert z == SymbolicReal.term(14, 1, 1) and hash(z) == hash(SymbolicReal.term(14, 1, 1))
    assert z != x

    p, q = sg.CyclicSingularity(7, 3), sg.singularity_type_from_rotation(7, 1, 3)
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1


@pytest.mark.parametrize("x", [ONE7, ca.AlgElt.one(), PI],
                         ids=["CycElt", "AlgElt", "SymbolicReal"])
def test_records_with_arithmetic_are_not_tuples(x):
    assert not isinstance(x, tuple)
    for product in (lambda: 2 * x, lambda: x * 2):
        try:
            value = product()
        except (TypeError, AttributeError):
            continue
        assert not isinstance(value, tuple)


FOREIGN = ["PI * 2", "2 * PI", "PI * ONE7", "zeta7() + 1", "1 + zeta7()", "zeta7() - 1",
           "zeta7() / 2", "zeta7() * True", "True * zeta7()", "zeta7() * 0.5",
           "AlgElt.one() * 2", "AlgElt.one() + ONE7", "AlgElt.one() - 1", "AlgElt.one() * ONE7"]


@pytest.mark.parametrize("expr", FOREIGN)
def test_an_operand_of_another_type_is_a_type_error(expr):
    with pytest.raises(TypeError):
        eval(expr, {"PI": PI, "ONE7": ONE7, "zeta7": zeta7, "AlgElt": ca.AlgElt})


class Reflected:
    """An operand of another type that answers every reflected operator."""

    def _reflected(self, other):
        return "reflected"

    __radd__ = __rsub__ = __rmul__ = __rtruediv__ = _reflected


@pytest.mark.parametrize("expr", ["PI * R", "ONE7 + R", "ONE7 - R", "ONE7 * R", "ONE7 / R",
                                  "AlgElt.one() + R", "AlgElt.one() - R", "AlgElt.one() * R"])
def test_an_operand_of_another_type_gets_its_reflected_operator(expr):
    names = {"PI": PI, "ONE7": ONE7, "AlgElt": ca.AlgElt, "R": Reflected()}
    assert eval(expr, names) == "reflected"


def test_records_show_their_fields():
    assert repr(sg.CyclicSingularity(7, 3)) == "CyclicSingularity(n=7, q=3)"
    assert repr(Interval(Fraction(1), Fraction(2))) == \
        "Interval(a=Fraction(1, 1), b=Fraction(2, 1))"
    assert repr(SymbolicReal.rational(3)) == \
        "SymbolicReal(coeff=Fraction(3, 1), pi_power=0, root=0)"
    assert repr(ca.AlgElt.zero()).startswith("AlgElt(x0=CycElt(modulus=7, ")


def test_a_subclass_of_a_validated_record_runs_its_own_check():
    seen = []

    class Watched(sg.CyclicSingularity):
        def __init__(self, n, q):
            seen.append((n, q))
            super().__init__(n, q)

    w = Watched(5, 2)
    assert (w.n, w.q) == (5, 2) and seen == [(5, 2)]
    with pytest.raises(ValueError):
        Watched(6, 2)
    assert seen == [(5, 2), (6, 2)]


@pytest.mark.parametrize("build, error, message", [
    (lambda: sg.CyclicSingularity(7, 7), ValueError, "(7,7) is not a valid cyclic type"),
    (lambda: sg.CyclicSingularity(n=1, q=1), ValueError, "(1,1) is not a valid cyclic type"),
    (lambda: cl.KodairaFiber("II"), ValueError, "unsupported fiber kind II"),
    *((lambda kind=kind: cl.KodairaFiber(kind), ValueError, f"unsupported fiber kind {kind}")
      for kind in ("I_x", "I_ 3", "I_+3", "I_03", "I_\u0663", "I_0", "I_")),
    (lambda: cl.KodairaFiber("I_2", 0), ValueError, "multiplicity must be >= 1"),
    *((lambda m=m: cl.KodairaFiber("I_3", m, ("a", "b", "c")), TypeError,
       f"multiplicity must be an int, not {type(m).__name__}") for m in (1.5, True, "2")),
    (lambda: cl.KodairaFiber("I_3", 1, ["a", "b", "c"]), TypeError,
     "components must be a tuple of str, not list"),
    (lambda: cl.KodairaFiber("I_3", 1, (c for c in "abc")), TypeError,
     "components must be a tuple of str, not generator"),
    (lambda: cl.KodairaFiber("I_3", 1, ("a", 2, "c")), TypeError,
     "a fiber component must be a str, not int"),
    (lambda: sg.CyclicSingularity(7, True), TypeError, "q must be an int, not bool"),
    (lambda: sg.CyclicSingularity(7.0, 3), TypeError, "n must be an int, not float"),
    (lambda: sg.CyclicSingularity(7, Fraction(3)), TypeError, "q must be an int, not Fraction"),
    *((build, hm.NotHermitian, "matrix does not equal its conjugate transpose")
      for build in (lambda: hm.HermMatrix(ca.AlgElt.u().to_matrix()),
                    lambda: hm.HermMatrix.from_alg_elt(ca.AlgElt.u()))),
])
def test_validated_records_raise_as_before(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


CHECKED = {
    "CyclicSingularity": lambda: sg.CyclicSingularity(7, 3),
    "KodairaFiber": lambda: cl.KodairaFiber("I_3", 1, ("a", "b", "c")),
    "HermMatrix": hm.H_b,
    "DirichletCharacter": lambda: lf.DirichletCharacter(-7),
}


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_a_checked_record_is_not_a_tuple(name):
    x, same = CHECKED[name](), CHECKED[name]()
    fields = tuple(getattr(x, field) for field in x._fields)
    assert not isinstance(x, tuple)
    assert x != fields and fields != x
    assert x is not same and x == same and hash(x) == hash(same)


def test_records_with_a_mapping_get_their_own_mapping():
    a = cl.ball_quotient_invariants(Fraction(3), Fraction(0))
    b = cl.ball_quotient_invariants(Fraction(3), Fraction(0))
    a.plurigenera[2] = 10
    assert b.plurigenera == {}
    first, second = rpt.VerificationReport(), rpt.VerificationReport()
    first.add("x", "anchor", 1, 1)
    first.metadata["k"] = 1
    assert second.entries == [] and second.metadata == {}


def class_sum(dataset, k):
    """The class sum term by term in Q(zeta_N): sum of (zeta^(jk) R) w."""
    n = dataset.cyclotomic_modulus
    total = CycElt.zero(n)
    for c in dataset.classes:
        coeff = dim.R_coefficient(c.r, k, n, c.normal_eigenvalues)
        w = Fraction(c.virtual_euler, c.m * (c.r + 1))
        total = total + (CycElt.zeta(n, c.j * k) * coeff) * w
    return total


@pytest.mark.parametrize("build", [dim.build_gamma_dataset, dim.build_gamma_tilde_dataset])
def test_the_class_sum_matches_the_term_by_term_sum(build):
    base = build()
    n = base.cyclotomic_modulus
    units = [s for s in range(1, n) if math.gcd(s, n) == 1]
    assert len(units) == 12
    for s in units:
        ds = base.conjugated(s)
        for k in range(2, 63):  # three periods of 21: every shift jk mod 21 and its wrap
            assert CycElt.rational(n, dim.dimension(ds, k)) == class_sum(ds, k), (s, k)

