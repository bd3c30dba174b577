"""The integer kernels of the order arithmetic against the field paths they
replace, and the one elimination over o_K against sympy."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from ballquot import cyclic_algebra as ca
from ballquot import cyclotomic
from ballquot import lfunctions as lf
from ballquot import matrix3 as m3
from ballquot import order_arithmetic as oa
from ballquot.cyclic_algebra import AlgElt, b_element
from ballquot.cyclotomic import CycElt, alpha, lam, lam_bar, zeta7
from tests.test_properties import CASES, algebra_elements, reference_matrix

ORDERS = (oa.OrderBasis.standard, oa.OrderBasis.iota_b_stable)


# o_K = Z[lambda] as sympy's Q(sqrt(-7)), lambda = (-1 + sqrt(-7))/2
K = sympy.QQ.algebraic_field(sympy.sqrt(-7))
LAMBDA = K.from_sympy((-1 + sympy.sqrt(-7)) / 2)
small = st.integers(min_value=-3, max_value=3)
o_K_entries = st.one_of(st.just((0, 0)), st.tuples(small, small))


@st.composite
def o_K_matrices(draw, singular=False):
    """An n x n matrix of pairs (p, q) for p + q*lambda, n <= 5.  With
    `singular`, row k is minus an o_K-combination of the rows before it (zero
    when k = 0), so the elimination stops at or before column k."""
    n = draw(st.integers(min_value=1, max_value=5))
    a = [[draw(o_K_entries) for _ in range(n)] for _ in range(n)]
    if singular:
        k = draw(st.integers(min_value=0, max_value=n - 1))
        row_k = [oa._OK(0, 0)] * n
        for row in a[:k]:
            w = oa._OK(*draw(o_K_entries))
            row_k = [c - w * oa._OK(*v) for c, v in zip(row_k, row)]
        a[k] = [(c.p, c.q) for c in row_k]
    return a


def o_K_determinant(a):
    """`matrix3.determinant` of the pairs (p, q) as p + q*lambda."""
    return m3.determinant([[oa._OK(p, q) for p, q in row] for row in a])


def in_sympy(p, q):
    return K.convert(p) + K.convert(q) * LAMBDA


@CASES
@given(o_K_matrices())
def test_the_elimination_over_o_K_matches_sympy(a):
    d = o_K_determinant(a)
    entries = [[in_sympy(p, q) for p, q in row] for row in a]
    assert in_sympy(d.p, d.q) == DomainMatrix(entries, (len(a), len(a)), K).det()


@CASES
@given(o_K_matrices(singular=True))
def test_the_elimination_over_o_K_of_a_dependent_system_gives_zero(a):
    d = o_K_determinant(a)
    assert (d.p, d.q) == (0, 0) and not d


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


# each vector kernel against its definition component by component, in CycElt arithmetic

ZERO7 = CycElt.zero(7)
# zero, or six small numerators over a denominator of its own
sparse_field_elements = st.one_of(
    st.just(ZERO7),
    st.builds(lambda num, den: CycElt(7, [Fraction(a, den) for a in num]),
              st.lists(st.integers(-4, 4), min_size=6, max_size=6), st.integers(1, 12)))
sparse_algebra_elements = st.builds(AlgElt, sparse_field_elements, sparse_field_elements,
                                    sparse_field_elements)


def parts(x: AlgElt) -> tuple[CycElt, CycElt, CycElt]:
    return x.x0, x.x1, x.x2


def componentwise_product(xs, ys):
    """x_i u^i * y_j u^j = x_i sigma^-i(y_j) u^(i+j), sigma^-1: zeta -> zeta^4, u^3 = alpha."""
    out = [ZERO7] * 3
    for i, xi in enumerate(xs):
        for j, yj in enumerate(ys):
            term = xi * yj.galois(pow(4, i, 7))
            out[(i + j) % 3] += alpha() * term if i + j > 2 else term
    return tuple(out)


def componentwise_iota(xs):
    x0, x1, x2 = xs
    a = alpha().conjugate()
    return x0.conjugate(), a * x2.galois(3), a * x1.galois(5)


@CASES
@given(sparse_algebra_elements, sparse_algebra_elements, sparse_field_elements,
       st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(5, 4)]))
def test_the_vector_kernels_are_their_componentwise_definitions(x, y, c, q):
    b = b_element()
    b_inverse = parts(b.inverse())
    assert componentwise_product(parts(b), b_inverse) == parts(AlgElt.one())
    want = {
        "mul": (x * y, componentwise_product(parts(x), parts(y))),
        "iota": (x.iota(), componentwise_iota(parts(x))),
        "iota_b": (x.iota_b(b), componentwise_product(
            componentwise_product(parts(b), componentwise_iota(parts(x))), b_inverse)),
        "add": (x + y, tuple(s + t for s, t in zip(parts(x), parts(y)))),
        "scale_L": (x.scale(c), tuple(c * a for a in parts(x))),
        "scale_Q": (x.scale(q), tuple(a * q for a in parts(x))),
    }
    assert x.product_x0(y) == want["mul"][1][0]
    for name, (r, components) in want.items():
        # a kernel result equals and hashes like the element built from its components
        rebuilt = AlgElt(*parts(r))
        assert r == rebuilt and rebuilt == r and hash(r) == hash(rebuilt), name
        assert parts(r) == components, name
        assert r == AlgElt(*components) and hash(r) == hash(AlgElt(*components)), name


def test_the_algebra_kernel_makes_no_field_product_or_galois_map(monkeypatch):
    x, y = AlgElt(zeta7(), lam() * Fraction(1, 2), lam_bar()), b_element()
    expected = x * y, x.product_x0(y), x.iota()  # alpha's vectors are cached by now

    def refuse(*args):
        raise AssertionError("the algebra kernel called a field kernel")

    monkeypatch.setattr(cyclotomic, "_mul", refuse)
    monkeypatch.setattr(cyclotomic, "_galois", refuse)
    assert (x * y, x.product_x0(y), x.iota()) == expected


def test_a_dense_product_makes_one_kernel_call_per_component_and_two_for_alpha(monkeypatch):
    """One `convolve` call per nonzero x_i, through a table that reads both
    sigma^-i and the u-degree, plus the two of the wrap u^3 = alpha."""
    x, y = oa.OrderBasis.iota_b_stable().elements[4:6]
    assert all(z.x0 and z.x1 and z.x2 for z in (x, y))
    calls, convolve = [], ca.convolve
    monkeypatch.setattr(ca, "convolve", lambda *args: calls.append(1) or convolve(*args))
    x * y
    assert len(calls) <= 5
    calls.clear()
    x.product_x0(y)
    assert len(calls) <= 4


def test_no_module_but_cyclotomic_knows_the_layout_of_a_field_element():
    """Outside `cyclotomic`, no module calls `._make` or `._set`, imports an underscored
    name from `cyclotomic`, or reads one as `cyclotomic._name`."""
    seen = []
    for path in sorted(Path(cyclotomic.__file__).parent.glob("*.py")):
        if path.name == "cyclotomic.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and (
                    node.attr in ("_make", "_set") or (node.attr.startswith("_")
                                             and isinstance(node.value, ast.Name)
                                             and node.value.id == "cyclotomic")):
                seen.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").rpartition(".")[2] == "cyclotomic"):
                seen += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                         if a.name.startswith("_")]
    assert seen == []


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
    for chi in (lf.DirichletCharacter(-7), lf.DirichletCharacter(-4),
                lf.DirichletCharacter(1)):
        for n in (2, 3, 4, 7):
            for terms in (10, 11, 97, 500):
                direct = math.fsum(chi(m) / m ** n for m in range(1, terms + 1))
                assert lf.l_series_oracle(n, chi, terms)[0] == direct
