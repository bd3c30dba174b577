"""Randomized algebraic-law suites (at least 100 cases each)."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ballquot import matrix3 as m3
from ballquot import order_arithmetic as oa
from ballquot import singularities as sg
from ballquot.cyclic_algebra import AlgElt, b_element
from ballquot.cyclotomic import CycElt, alpha, lam, lam_bar, lambda_valuation
from ballquot.hermitian import H_b, HermMatrix
from ballquot.symreal import ONE, SymbolicReal

CASES = settings(max_examples=100, deadline=None, derandomize=True)

# the 25 fractions in [-3, 3] with denominator at most 3, smallest first so
# that shrinking heads for 0
fractions = st.sampled_from(sorted(
    {Fraction(a, d) for d in (1, 2, 3) for a in range(-3 * d, 3 * d + 1)},
    key=lambda q: (abs(q), q.denominator, q < 0)))
nonzero_fractions = fractions.filter(lambda q: q != 0)


@st.composite
def field_elements(draw):
    return CycElt(7, [draw(fractions) for _ in range(6)])


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

PHI = {3: (1, 1, 1), 7: (1, 1, 1, 1, 1, 1, 1), 21: (1, -1, 0, 1, -1, 0, 1, 0, -1, 1, 0, -1, 1)}


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


# ---------------------------------------------------------------------------
# norm, adjugate and inverse from the reduced characteristic polynomial,
# against the matrix embedding

def reference_matrix(x):
    """D(x0) + D(x1) U + D(x2) U^2 with D(a) = diag(a, a^sigma, a^sigma^2) and U
    the companion matrix of u^3 = alpha."""
    zero, one = CycElt.zero(7), CycElt.one(7)
    U = m3.mat([[zero, zero, alpha()], [one, zero, zero], [zero, one, zero]])

    def diag(a):
        return m3.mat([[a.galois(pow(2, i, 7)) if i == j else zero for j in range(3)]
                       for i in range(3)])

    def add(a, b):
        return m3.mat([[a[i][j] + b[i][j] for j in range(3)] for i in range(3)])

    return add(diag(x.x0), add(m3.mat_mul(diag(x.x1), U),
                               m3.mat_mul(diag(x.x2), m3.mat_mul(U, U))))


@CASES
@given(algebra_elements())
def test_entrywise_embedding_matches_its_definition(x):
    assert x.to_matrix() == reference_matrix(x)


@CASES
@given(algebra_elements())
def test_reduced_norm_is_the_determinant(x):
    assert x.reduced_norm() == m3.det(x.to_matrix())


@CASES
@given(algebra_elements())
def test_adjugate_is_a_two_sided_cofactor(x):
    adj = x.adjugate()
    assert x * adj == adj * x == AlgElt.from_L(x.reduced_norm())


@CASES
@given(algebra_elements())
def test_reduced_characteristic_polynomial(x):
    # x^# = x^2 - T x + S and T(x^2) = T^2 - 2S give T(x^#) = S
    t, s = x.reduced_trace(), x.adjugate().reduced_trace()
    assert m3.char_poly(x.to_matrix()) == (-t, s, -x.reduced_norm())


@CASES
@given(algebra_elements())
def test_algebra_inverse(x):
    assume(not x.is_zero())
    assert x * x.inverse() == AlgElt.one()


@CASES
@given(st.integers(min_value=1, max_value=10**8))
def test_factor_int_matches_sympy(n):
    assert oa._factor_int(n) == sympy.factorint(n)


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
    assert x * y == SymbolicReal.rational(a * b)


@CASES
@given(fractions, fractions, fractions,
       st.integers(min_value=-3, max_value=3), st.integers(min_value=-2, max_value=2))
def test_symbolic_ring_laws(a, b, c, p, s):
    """The laws the monomials keep: the product is commutative and
    associative, with ONE its identity and zero absorbing."""
    x = SymbolicReal.term(a, p, s)
    y = SymbolicReal.term(b, 1, 1)
    z = SymbolicReal.term(c, -p, s + 1)
    zero = SymbolicReal.rational(0)
    assert x * y == y * x and hash(x * y) == hash(y * x)
    assert (x * y) * z == x * (y * z)
    assert ONE * x == x == x * ONE
    assert zero * x == x * zero == zero


# ---------------------------------------------------------------------------
# the one elimination, against the 3x3 closed forms and against sympy

small_entries = st.integers(min_value=-3, max_value=3)
integer_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n))


def as_field(rows):
    return m3.mat([CycElt.rational(7, v) for v in row] for row in rows)


@CASES
@given(st.lists(st.one_of(st.just((0, 0)), st.tuples(small_entries, small_entries)),
                min_size=9, max_size=9))
def test_elimination_matches_the_3x3_closed_forms(entries):
    # entries p + q*lambda of o_K; their p parts make an integer matrix
    rows = [entries[3 * i:3 * i + 3] for i in range(3)]
    d = m3.determinant([[oa._OK(p, q) for p, q in row] for row in rows])
    assert CycElt.from_K(d.p, d.q) == m3.det(m3.mat([CycElt.from_K(p, q) for p, q in row]
                                                    for row in rows))
    a = [[p for p, _ in row] for row in rows]
    if m3.det(as_field(a)):
        inv, den = m3.integer_inverse(a)
        assert as_field(inv) == m3.mat([v * den for v in row] for row in m3.inverse(as_field(a)))
    else:
        with pytest.raises(m3.SingularMatrix):
            m3.integer_inverse(a)


@CASES
@given(integer_matrices)
def test_elimination_matches_sympy_on_integer_matrices(a):
    n = len(a)
    det = m3.determinant(a)
    assert type(det) is int and det == int(sympy.Matrix(a).det())
    if det:
        inv, den = m3.integer_inverse(a)
        assert den > 0
        product = [[sum(a[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
        assert product == [[den * int(i == j) for j in range(n)] for i in range(n)]


@CASES
@given(integer_matrices, st.lists(small_entries, min_size=5, max_size=5))
def test_elimination_of_a_singular_matrix_gives_determinant_zero(a, weights):
    # the last row becomes a combination of the others (zero when n = 1)
    a[-1] = [sum(w * row[j] for w, row in zip(weights, a[:-1])) for j in range(len(a))]
    assert m3.determinant(a) == 0
    with pytest.raises(m3.SingularMatrix):
        m3.integer_inverse(a)


def test_a_dependent_basis_has_no_coordinates():
    # lambda * e_0 lies in the K-span of e_0
    e = oa.OrderBasis.standard().elements
    basis = oa.OrderBasis(e[:8] + (e[0].scale(lam()),))
    with pytest.raises(m3.SingularMatrix):
        basis.coordinates(e[0])


def test_a_dependent_basis_has_discriminant_zero():
    e = oa.OrderBasis.standard().elements
    d = oa.discriminant(oa.OrderBasis(e[:8] + (e[0].scale(lam()),)))
    assert d["determinant"].is_zero()
    assert (d["abs_value"], d["factorization"]) == (0, {})


@CASES
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-40, max_value=40).map(lambda k: 2 * k + 1),
       st.integers(min_value=0, max_value=40).map(lambda k: 2 * k + 1))
def test_lambda_valuation_counts_lambda_and_two_but_not_lambda_bar(a, b, c, u, w):
    # 2 = lambda * lambda_bar, and odd integers are units at lambda
    x = CycElt.rational(7, Fraction(u, w) * Fraction(2) ** c)
    for factor, times in ((lam(), a), (lam_bar(), b)):
        for _ in range(times):
            x = x * factor
    assert lambda_valuation(x) == a + c


# ---------------------------------------------------------------------------
# the branch-data search, against a brute-force scan of every multiset

def point_types(d_max):
    return [sg.CyclicSingularity(d, e) for d in range(2, d_max + 1)
            for e in range(1, d) if gcd(d, e) == 1]


def ref_branch_data(total_euler, total_sign, known, target_e, target_s, d_max):
    """Every multiset of at most 2 * budget types with d <= d_max, in the
    order combinations_with_replacement gives, kept if it meets both targets."""
    base = sg.OrbifoldSurface(total_euler, total_sign, tuple(known))
    e_budget = sg.euler_height(base) - target_e
    s_budget = sg.signature_height(base) - target_s
    if e_budget < 0:
        return []
    types = point_types(d_max)
    scale = 420  # lcm(2, ..., 7): every Euler cost 1 - 1/d is an integer multiple of 1/scale
    cost = {p: scale - scale // p.n for p in types}
    defect = {p: sg.signature_defect(p) for p in types}
    solutions = []
    for r in range(int(2 * e_budget) + 1):
        for combo in combinations_with_replacement(types, r):
            if (sum(cost[p] for p in combo) == e_budget * scale
                    and sum((defect[p] for p in combo), Fraction(0)) == s_budget):
                solutions.append((r, combo))
    return solutions


small_budgets = st.fractions(min_value=Fraction(-2), max_value=Fraction(3), max_denominator=7)


@st.composite
def branch_problems(draw):
    """A problem built from a random multiset of extra points, so it has at
    least that solution; a perturbed target usually has none."""
    d_max = draw(st.integers(min_value=2, max_value=7))
    types = point_types(d_max)
    known = draw(st.lists(st.sampled_from(point_types(7)), max_size=2))
    extra = draw(st.lists(st.sampled_from(types), max_size=3))
    total_e, total_s = draw(small_budgets), draw(small_budgets)
    x = sg.OrbifoldSurface(total_e, total_s, tuple(known) + tuple(extra))
    shift_e = draw(st.sampled_from([0, 0, 0, Fraction(1, 6), Fraction(-1, 12), Fraction(1, 2)]))
    shift_s = draw(st.sampled_from([0, 0, 0, Fraction(2, 9), Fraction(-2, 7), Fraction(1, 5)]))
    return (total_e, total_s, known, sg.euler_height(x) + shift_e,
            sg.signature_height(x) + shift_s, d_max)


@CASES
@given(branch_problems())
def test_branch_search_matches_the_brute_force_scan(problem):
    assert sg.solve_branch_data(*problem) == ref_branch_data(*problem)


@pytest.mark.parametrize("extra", [((5, 2), (7, 2)), ((4, 1), (5, 3), (7, 5)),
                                   ((3, 1), (7, 3), (7, 3))])
def test_branch_search_lists_several_solutions_in_scan_order(extra):
    # (5, 2) ~ (5, 3), (7, 2) ~ (7, 4), (7, 3) ~ (7, 5): equal costs, equal defects
    x = sg.OrbifoldSurface(Fraction(3), Fraction(1),
                           tuple(sg.CyclicSingularity(d, e) for d, e in extra))
    problem = (Fraction(3), Fraction(1), [], sg.euler_height(x), sg.signature_height(x), 7)
    sols = sg.solve_branch_data(*problem)
    assert len(sols) > 1 and sols == ref_branch_data(*problem)


def test_branch_search_does_not_depend_on_a_large_order_cap(monkeypatch):
    """d_max only caps the search: a cap of 10^6 visits exactly the points a
    cap of 12 visits, and finds the same single solution."""
    visits = []

    class Counted(sg.CyclicSingularity):
        def __init__(self, n, q):
            visits.append((n, q))
            assert len(visits) < 10_000, "the search visits orders the budget rules out"
            super().__init__(n, q)

    monkeypatch.setattr(sg, "CyclicSingularity", Counted)
    args = (Fraction(3), Fraction(1), [Counted(7, 3)], Fraction(1, 7), Fraction(1, 21))
    visits.clear()
    small = sg.solve_branch_data(*args, 12)
    seen = list(visits)
    visits.clear()
    large = sg.solve_branch_data(*args, 10 ** 6)
    assert visits == seen and max(n for n, _ in seen) <= 6
    assert small == large == [(3, (Counted(3, 2),) * 3)]


@pytest.mark.parametrize("target_e", [Fraction(1, 7) + Fraction(1, 100), Fraction(3, 7),
                                      Fraction(5, 2), Fraction(100)])
def test_a_negative_euler_budget_has_no_solution(target_e):
    # the base has Euler height 1/7, below every target here
    assert sg.solve_branch_data(Fraction(1), Fraction(0), [sg.CyclicSingularity(7, 3)],
                                target_e, Fraction(0), 12) == []
