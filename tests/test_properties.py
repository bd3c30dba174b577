"""Randomized algebraic-law suites (at least 100 cases each)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ballquot import matrix3 as m3
from ballquot import singularities as sg
from ballquot.cyclic_algebra import AlgElt, b_element
from ballquot.cyclotomic import CycElt, alpha
from ballquot.hermitian import H_b, HermMatrix
from ballquot.symreal import SymbolicReal

CASES = settings(max_examples=100, deadline=None, derandomize=True)

fractions = st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                         max_denominator=3)
nonzero_fractions = fractions.filter(lambda q: q != 0)


@st.composite
def field_elements(draw):
    return CycElt.from_poly(7, [draw(fractions) for _ in range(6)])


@st.composite
def algebra_elements(draw):
    return AlgElt(draw(field_elements()), draw(field_elements()),
                  draw(field_elements()))


@CASES
@given(field_elements(), field_elements(), field_elements())
def test_field_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert (a * a.inverse()).as_rational() == 1


@CASES
@given(field_elements(), field_elements())
def test_galois_automorphism_properties(a, b):
    # ring homomorphism of order dividing 3
    assert (a + b).galois(2) == a.galois(2) + b.galois(2)
    assert (a * b).galois(2) == a.galois(2) * b.galois(2)
    assert a.galois(2).galois(2).galois(2) == a
    assert a.conjugate().conjugate() == a


@CASES
@given(field_elements())
def test_twist_relation_at_matrix_level(a):
    # rep(a) * U = U * rep(a^sigma) for diagonal images of field elements
    U = AlgElt.u().to_matrix()
    left = m3.mat_mul(AlgElt.from_L(a).to_matrix(), U)
    right = m3.mat_mul(U, AlgElt.from_L(a.galois(2)).to_matrix())
    assert left == right


@CASES
@given(algebra_elements(), algebra_elements())
def test_involution_properties(x, y):
    assert x.iota().iota() == x
    assert (x * y).iota() == y.iota() * x.iota()


@CASES
@given(algebra_elements())
def test_twisted_involution_is_involutive(x):
    b = b_element()
    assert x.iota_b(b).iota_b(b) == x


@CASES
@given(algebra_elements(), algebra_elements())
def test_reduced_norm_is_multiplicative(x, y):
    assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()
    assert (x + y).reduced_trace() == x.reduced_trace() + y.reduced_trace()


# ---------------------------------------------------------------------------
# the integer field kernels against the definition they replace: Fraction
# polynomials reduced by long division by Phi_n

PHI = {3: (1, 1, 1), 21: (1, -1, 0, 1, -1, 0, 1, 0, -1, 1, 0, -1, 1)}


def ref_reduce(n, poly):
    phi = PHI[n]
    d = len(phi) - 1
    p = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for k in range(len(p) - 1, d - 1, -1):  # Phi_n is monic
        c = p[k]
        for i, f in enumerate(phi):
            p[k - d + i] -= c * f
    return tuple(p[:d])


def ref_mul(n, a, b):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_reduce(n, prod)


def ref_galois(n, a, k):
    poly = [Fraction(0)] * n
    for i, c in enumerate(a):
        poly[i * k % n] += c
    return ref_reduce(n, poly)


def elements_of(n):
    return st.lists(fractions, min_size=len(PHI[n]) - 1, max_size=len(PHI[n]) - 1).map(
        lambda c: CycElt(n, tuple(c)))


@pytest.mark.parametrize("n", sorted(PHI))
@CASES
@given(data=st.data())
def test_field_kernels_match_the_polynomial_definition(n, data):
    a, b = data.draw(elements_of(n)), data.draw(elements_of(n))
    assert (a * b).coeffs == ref_mul(n, a.coeffs, b.coeffs)
    for k in range(1, n):
        if gcd(k, n) == 1:
            assert a.galois(k).coeffs == ref_galois(n, a.coeffs, k)
    assume(not a.is_zero())
    one = (Fraction(1),) + (Fraction(0),) * (len(PHI[n]) - 2)
    assert ref_mul(n, a.coeffs, a.inverse().coeffs) == one


@CASES
@given(algebra_elements())
def test_closed_form_involution_matches_its_definition(x):
    # iota(x0 + x1 u + x2 u^2) = conj(x0) + iota(u) conj(x1) + iota(u)^2 conj(x2),
    # iota(u) = conj(alpha) u^2
    iota_u = AlgElt.from_L(alpha().conjugate()) * AlgElt.u() * AlgElt.u()
    expect = (AlgElt.from_L(x.x0.conjugate())
              + iota_u * AlgElt.from_L(x.x1.conjugate())
              + iota_u * iota_u * AlgElt.from_L(x.x2.conjugate()))
    assert x.iota() == expect
    assert x.reduced_trace() == m3.trace(x.to_matrix())


small_ints = st.integers(min_value=-2, max_value=2)


@CASES
@given(st.lists(small_ints, min_size=9, max_size=9))
def test_signature_is_a_congruence_invariant(entries):
    s = [[CycElt.rational(7, entries[3 * i + j]) for j in range(3)]
         for i in range(3)]
    try:
        m3.inverse(s)
    except Exception:
        return  # singular transform, nothing to check
    h = H_b().entries
    transformed = m3.mat_mul(m3.conj_transpose(s), m3.mat_mul(h, s))
    sig = HermMatrix(transformed).signature()
    assert (sig.positives, sig.negatives, sig.zeros) == (1, 2, 0)


def test_dedekind_reciprocity_up_to_fifty():
    checked = 0
    for n in range(2, 51):
        for q in range(1, n):
            if gcd(n, q) != 1:
                continue
            # s(q,n) + s(n,q) = -1/4 + (n/q + q/n + 1/(n*q)) / 12
            total = sg.dedekind_sum(q, n) + sg.dedekind_sum(n, q)
            expect = Fraction(-1, 4) + (Fraction(n, q) + Fraction(q, n)
                                        + Fraction(1, n * q)) / 12
            assert total == expect, (n, q)
            checked += 1
    assert checked >= 100


@CASES
@given(nonzero_fractions, nonzero_fractions,
       st.integers(min_value=-4, max_value=4), st.integers(min_value=-3, max_value=3))
def test_symbolic_power_cancellation(a, b, p, s):
    x = SymbolicReal.term(a, p, s)
    y = SymbolicReal.term(b, -p, -s)
    assert (x * y).as_rational() == a * b
    assert (x - x).is_zero()


@CASES
@given(fractions, fractions, fractions,
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2))
def test_symbolic_ring_laws(a, b, c, p, s):
    x = SymbolicReal.term(a, p, s)
    y = SymbolicReal.term(b, 1, 1)
    z = SymbolicReal.rational(c)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x + y) + z == x + (y + z)
