"""The integer kernels of the order arithmetic against the field paths they replace."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ballquot import cyclotomic
from ballquot import lfunctions as lf
from ballquot import matrix3 as m3
from ballquot import order_arithmetic as oa
from ballquot.cyclic_algebra import AlgElt, b_element
from ballquot.cyclotomic import CycElt, lam, lam_bar, zeta7
from tests.test_properties import CASES, algebra_elements, fractions, reference_matrix

ORDERS = (oa.OrderBasis.standard, oa.OrderBasis.iota_b_stable)


def as_field(rows):
    return [[CycElt.rational(7, v) for v in row] for row in rows]


def field_gauss_jordan(a):
    """`gauss_jordan` of the same entries as elements of Q(zeta_7), which
    takes the field update rule."""
    return m3.gauss_jordan(as_field(a))


@st.composite
def rational_systems(draw, singular=False):
    """An n x m matrix of the suite's fractions, n <= 5 and n <= m <= 2n.  With
    `singular`, column k < n is a combination of the columns before it (zero
    when k = 0), so the elimination stops at or before column k while the
    rows not yet pivoted may still hold nonzero entries right of it."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=n, max_value=2 * n))
    a = [[draw(fractions) for _ in range(m)] for _ in range(n)]
    if singular:
        k = draw(st.integers(min_value=0, max_value=n - 1))
        weights = [draw(fractions) for _ in range(k)]
        for row in a:
            row[k] = sum((w * v for w, v in zip(weights, row)), Fraction(0))
    return a


@CASES
@given(rational_systems())
def test_integer_elimination_matches_the_field_rule(a):
    det, reduced = m3.gauss_jordan(a)
    field_det, field_reduced = field_gauss_jordan(a)
    assert all(isinstance(v, Fraction) for row in reduced for v in row)
    assert CycElt.rational(7, det) == field_det
    assert as_field(reduced) == field_reduced


@CASES
@given(rational_systems(singular=True))
def test_integer_elimination_of_a_singular_system_matches_the_field_rule(a):
    det, reduced = m3.gauss_jordan(a)
    field_det, field_reduced = field_gauss_jordan(a)
    assert det == 0 and field_det.is_zero()
    assert as_field(reduced) == field_reduced  # the same partial reduction


@CASES
@given(algebra_elements(), algebra_elements())
def test_product_x0_is_the_first_component_of_the_product(x, y):
    assert x.product_x0(y) == (x * y).x0


# the algebra kernel over Z[C_7] against the matrix embedding, built from
# field products and Galois maps alone

@CASES
@given(algebra_elements(), algebra_elements())
def test_the_product_kernel_is_the_matrix_product(x, y):
    assert reference_matrix(x * y) == m3.mat_mul(reference_matrix(x), reference_matrix(y))


@CASES
@given(algebra_elements())
def test_the_involution_kernel_is_the_conjugate_transpose(x):
    assert reference_matrix(x.iota()) == m3.conj_transpose(reference_matrix(x))


def test_the_kernel_with_zero_components_and_unequal_denominators():
    zero = CycElt.zero(7)
    xs = [AlgElt(zero, lam() * Fraction(1, 2), zeta7() * Fraction(-2, 3)),
          AlgElt(CycElt.rational(7, Fraction(5, 4)), zero, lam_bar() * Fraction(1, 6)),
          AlgElt(zeta7() * Fraction(1, 7), lam_bar(), zero),
          AlgElt.zero()]
    for x in xs:
        assert reference_matrix(x.iota()) == m3.conj_transpose(reference_matrix(x))
        for y in xs:
            product = x * y
            assert reference_matrix(product) == m3.mat_mul(reference_matrix(x),
                                                           reference_matrix(y))
            assert x.product_x0(y) == product.x0
    assert xs[0] * xs[3] == xs[3] * xs[0] == AlgElt.zero()


def test_the_algebra_kernel_makes_no_field_product_or_galois_map(monkeypatch):
    x, y = AlgElt(zeta7(), lam() * Fraction(1, 2), lam_bar()), b_element()
    expected = x * y, x.product_x0(y), x.iota()  # alpha's vectors are cached by now

    def refuse(*args):
        raise AssertionError("the algebra kernel called a field kernel")

    monkeypatch.setattr(cyclotomic, "_mul", refuse)
    monkeypatch.setattr(cyclotomic, "_galois", refuse)
    assert (x * y, x.product_x0(y), x.iota()) == expected


def test_gram_matrix_is_the_reduced_trace_of_every_product():
    for order in ORDERS:
        xs = order().elements
        assert oa.gram_matrix(order()) == [[(xi * xj).reduced_trace() for xj in xs]
                                           for xi in xs]


def test_gram_matrix_makes_no_algebra_product(monkeypatch):
    bases = [order() for order in ORDERS]  # built before the count starts
    calls = []
    mul = AlgElt.__mul__

    def counting_mul(self, o):
        calls.append(1)
        return mul(self, o)

    monkeypatch.setattr(AlgElt, "__mul__", counting_mul)
    for basis in bases:
        oa.gram_matrix(basis)
    assert calls == []


@pytest.mark.parametrize("order, stable", [(oa.OrderBasis.standard, False),
                                           (oa.OrderBasis.iota_b_stable, True)])
def test_integral_coordinates_are_those_with_denominator_one(order, stable):
    basis = order()
    xs = basis.elements
    products = [xi * xj for xi in xs for xj in xs]
    images = [x.iota_b(b_element()) for x in xs]
    integral = []
    for x in products + images:
        coords = basis.coordinates(x)
        assert [c.den == 1 for c in coords] == [oa.is_K_integral(c) for c in coords]
        assert sum((e.scale(c) for c, e in zip(coords, xs)), AlgElt.zero()) == x
        integral.append(all(c.den == 1 for c in coords))
    assert all(integral[:81])  # an order is closed under products
    assert all(integral[81:]) == stable


def test_l_series_oracle_matches_the_direct_sum():
    for chi in (lf.DirichletCharacter.kronecker(-7), lf.DirichletCharacter.kronecker(-4),
                lf.DirichletCharacter(1, {})):
        for n in (2, 3, 4, 7):
            for terms in (10, 11, 97, 500):
                direct = math.fsum(chi(m) / m ** n for m in range(1, terms + 1))
                assert lf.l_series_oracle(n, chi, terms)[0] == direct
