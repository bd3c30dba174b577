"""K = Q(sqrt(-7)) read off the power basis of L = Q(zeta_7): the closed
forms of `trace_to_K`, `in_K`, `from_K`, `K_parts`, `K_coords`, lambda,
lambda_bar and alpha against their Galois definitions, the order layer run
without a single Galois map, and the numerators each algebra element keeps."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballquot import cyclic_algebra as ca, cyclotomic, order_arithmetic as oa
from ballquot.cyclotomic import CycElt, alpha, lam, lam_bar, zeta7

CASES = settings(max_examples=200, deadline=None, derandomize=True)

ints = st.integers(-60, 60)
dens = st.integers(1, 40)
L_elements = st.builds(lambda num, den: CycElt(7, [Fraction(a, den) for a in num]),
                       st.lists(ints, min_size=6, max_size=6), dens)
K_elements = st.builds(CycElt.from_K, ints, ints, dens)


@st.composite
def K_elements_moved(draw):
    """An element of K with one power-basis numerator moved off its shape."""
    a = draw(K_elements)
    i = draw(st.integers(1, 5))
    num = list(a.num)
    num[i] += draw(st.integers(1, 9)) * draw(st.sampled_from([-1, 1]))
    return CycElt(7, [Fraction(v, a.den) for v in num])


any_element = st.one_of(L_elements, K_elements, K_elements_moved())


def galois_trace(a: CycElt) -> CycElt:
    return a + a.galois(2) + a.galois(4)


def galois_in_K(a: CycElt) -> bool:
    return a.galois(2) == a


def galois_K_coords(a: CycElt) -> tuple[Fraction, Fraction]:
    """p + q*lambda = a for a in K: a - conj(a) = q*(lambda - lambda_bar)."""
    q = ((a - a.conjugate()) / (lam() - lam_bar())).as_rational()
    return (a - lam() * q).as_rational(), q


@CASES
@given(any_element)
def test_the_trace_to_K_is_the_sum_of_the_conjugates(a):
    assert a.trace_to_K() == galois_trace(a)


@CASES
@given(any_element)
def test_membership_in_K_is_being_fixed_by_sigma(a):
    assert a.in_K() == galois_in_K(a)


@CASES
@given(K_elements_moved())
def test_an_element_moved_off_the_shape_of_K_is_not_in_K(a):
    assert not a.in_K()
    with pytest.raises(ValueError, match="not in the subfield K"):
        a.K_parts()
    with pytest.raises(ValueError):
        oa.K_coords(a)


@CASES
@given(any_element)
def test_K_coordinates_are_the_galois_coordinates(a):
    if galois_in_K(a):
        assert oa.K_coords(a) == galois_K_coords(a)
    else:
        with pytest.raises(ValueError):
            oa.K_coords(a)


@CASES
@given(ints, ints, dens, st.integers(1, 30))
def test_from_K_is_the_canonical_element(p, q, den, k):
    """With a factor k shared by p, q and den: from_K's gcd(den, p, q) is the
    gcd of den and all six numerators."""
    a = CycElt.from_K(k * p, k * q, k * den)
    generic = CycElt(7, [Fraction(k * v, k * den) for v in (p, q, q, 0, q, 0)])
    assert (a.num, a.den) == (generic.num, generic.den)
    assert a == generic and hash(a) == hash(generic)
    assert a.den > 0 and gcd(a.den, *a.num) == 1


def test_lambda_lambda_bar_and_alpha_are_their_galois_definitions():
    z = zeta7()
    assert lam() == z + z.galois(2) + z.galois(4)
    assert lam_bar() == lam().conjugate()
    assert alpha() == lam() * lam_bar().inverse()


@CASES
@given(ints, ints, dens)
def test_K_parts_reads_back_what_from_K_takes(p, q, den):
    a = CycElt.from_K(p, q, den)
    g = gcd(den, p, q)
    assert a.K_parts() == (p // g, q // g, den // g)
    assert CycElt.from_K(*a.K_parts()) == a


def test_the_closed_forms_are_for_q_zeta7_only():
    a = CycElt.one(21)
    for op in (a.trace_to_K, a.in_K, a.K_parts):
        with pytest.raises(ValueError):
            op()


def test_the_order_layer_runs_without_galois_maps(monkeypatch):
    """Once lambda, lambda_bar, alpha and b^-1 are built, the order layer
    reads K off the power basis and applies no Galois map."""
    lam(), lam_bar(), alpha()
    O, S = oa.OrderBasis.standard(), oa.OrderBasis.iota_b_stable()
    ca.AlgElt.one().iota_b(ca.b_element())  # builds and caches b^-1

    def no_galois(a, k):
        raise AssertionError(f"Galois map zeta -> zeta^{k} applied")

    monkeypatch.setattr(cyclotomic, "_galois", no_galois)
    with pytest.raises(AssertionError):
        lam().conjugate()
    assert oa.discriminant(O)["abs_value"] == oa.discriminant(S)["abs_value"] == 2**6 * 7**3
    assert oa.is_iota_b_invariant()
    assert not oa.iota_b_invariance_report(O)["invariant"]
    for ei in S.elements:
        for ej in S.elements:
            assert all(c.den == 1 for c in S.coordinates(ei * ej))


def fresh_numerators(x: ca.AlgElt):
    den = lcm(x.x0.den, x.x1.den, x.x2.den)
    return tuple(a * (den // c.den) for c in (x.x0, x.x1, x.x2) for a in c.num), den


@CASES
@given(L_elements, L_elements, L_elements)
def test_kept_numerators_are_a_fresh_computation_and_change_no_comparison(x0, x1, x2):
    x, twin = ca.AlgElt(x0, x1, x2), ca.AlgElt(x0, x1, x2)
    before = (hash(x), repr(x))
    assert x.numerators() == fresh_numerators(x)
    assert x.numerators()[0] is x.numerators()[0]  # the kept vector, not a rebuilt one
    assert (hash(x), repr(x)) == before == (hash(twin), repr(twin))
    assert x == twin and twin == x
    assert "_v" not in repr(x) and "_d" not in repr(x)
