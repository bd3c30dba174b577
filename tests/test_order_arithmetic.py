from fractions import Fraction

import pytest

import ballquot
from ballquot.cyclic_algebra import AlgElt, NotIotaInvariant, b_element
from ballquot.cyclotomic import CycElt, euler_phi, lam, lam_bar, lambda_valuation, zeta7
from ballquot import order_arithmetic as oa


def test_K_coordinates_and_integrality():
    x = lam()
    a, b = oa.K_coords(x)
    # lambda = a + b * lambda with a = 0, b = 1
    assert (a, b) == (Fraction(0), Fraction(1))
    assert oa.is_K_integral(lam())
    assert not oa.is_K_integral(lam() * CycElt.rational(7, Fraction(1, 2)))


def test_lambda_valuation():
    assert lambda_valuation(lam()) == 1
    assert lambda_valuation(CycElt.rational(7, 2)) == 1
    assert lambda_valuation(CycElt.rational(7, 4)) == 2
    assert lambda_valuation(lam_bar()) == 0
    assert lambda_valuation(CycElt.one(7)) == 0


def test_standard_order_contains_its_generators():
    basis = oa.OrderBasis.standard()
    b = b_element()
    coords = basis.coordinates(b)
    assert all(oa.is_K_integral(c) for c in coords)
    # the adjugate of b also lies in the order: b^2 + 3b - 3
    three = AlgElt.from_L(CycElt.rational(7, 3))
    adj = b * b + b * three - three
    assert all(oa.is_K_integral(c) for c in basis.coordinates(adj))


def test_order_is_closed_under_multiplication_on_generators():
    basis = oa.OrderBasis.standard()
    for x in basis.elements:
        for y in basis.elements:
            coords = basis.coordinates(x * y)
            assert all(oa.is_K_integral(c) for c in coords)


def test_discriminant_normalization_report():
    d = oa.discriminant()
    assert d["abs_value"] == 21952
    assert d["factorization"] == {2: 6, 7: 3}
    assert d["is_two_to_six"] is False
    assert d["ramified_part_exponent"] == 3
    assert d["two_to_six_after_ramified_part"] is True


def _standard_with_e0_scaled_by(q: Fraction) -> oa.OrderBasis:
    e = oa.OrderBasis.standard().elements
    return oa.OrderBasis((e[0].scale(CycElt.rational(7, q)),) + e[1:])


def test_a_half_basis_element_divides_the_discriminant_by_four():
    d = oa.discriminant(_standard_with_e0_scaled_by(Fraction(1, 2)))
    assert d["abs_value"] == 5488
    assert d["factorization"] == {2: 4, 7: 3}


def test_a_non_integral_gram_determinant_raises():
    # the Gram determinant of this basis is 21952/9
    with pytest.raises(oa.BasisNotIntegral, match="21952/9"):
        oa.discriminant(_standard_with_e0_scaled_by(Fraction(1, 3)))


BAD_BASES = {
    "three elements, discriminant": lambda e: oa.discriminant(oa.OrderBasis(e[:3])),
    "no elements": lambda e: oa.OrderBasis(()),
    "nine integers": lambda e: oa.OrderBasis(tuple(range(9))),
    "ten elements, coordinates": lambda e: oa.OrderBasis(e + e[:1]).coordinates(e[0]),
}


@pytest.mark.parametrize("use", BAD_BASES.values(), ids=BAD_BASES)
def test_an_order_basis_is_exactly_nine_algebra_elements(use):
    assert issubclass(oa.BasisShapeError, ValueError)
    with pytest.raises(oa.BasisShapeError, match="tuple of 9 AlgElts"):
        use(oa.OrderBasis.standard().elements)


def test_twisted_involution_does_not_preserve_the_order():
    standard = oa.OrderBasis.standard()
    assert oa.is_iota_b_invariant(standard) is False
    rep = oa.iota_b_invariance_report(standard)
    assert rep["invariant"] is False
    assert rep["denominator_primes"] == [3]
    assert rep["reduced_norm_of_b"].as_rational() == 3
    assert rep["b_in_order"] is True
    assert rep["adjugate_of_b_in_order"] is True
    assert rep["invariant_away_from"] == [3]


def test_invariance_report_factors_a_fractional_reduced_norm():
    # iota_{b/2} = iota_b, and nrd(b/2) = 3/8 has primes 2 and 3 (int(3/8) is 0)
    half_b = b_element().scale(Fraction(1, 2))
    rep = oa.iota_b_invariance_report(oa.OrderBasis.standard(), half_b)
    assert rep["reduced_norm_of_b"].as_rational() == Fraction(3, 8)
    assert rep["denominator_primes"] == [3]
    assert rep["invariant_away_from"] == [3]


def test_invariance_report_refuses_a_b_that_iota_moves():
    with pytest.raises(NotIotaInvariant):
        oa.iota_b_invariance_report(oa.OrderBasis.standard(), AlgElt.u())


def test_iota_b_stable_order_is_stable():
    stable = oa.OrderBasis.iota_b_stable()
    assert oa.is_iota_b_invariant(stable) is True
    rep = oa.iota_b_invariance_report(stable)
    assert rep["invariant"] is True
    assert rep["failing_basis_indices"] == []
    assert rep["denominator_primes"] == []


def test_iota_b_stable_order_contains_b_and_its_adjugate():
    rep = oa.iota_b_invariance_report(oa.OrderBasis.iota_b_stable())
    assert rep["b_in_order"] is True
    assert rep["adjugate_of_b_in_order"] is True


def test_iota_b_stable_order_is_closed_under_multiplication_on_generators():
    basis = oa.OrderBasis.iota_b_stable()
    for x in basis.elements:
        for y in basis.elements:
            coords = basis.coordinates(x * y)
            assert all(oa.is_K_integral(c) for c in coords)


def test_iota_b_stable_order_has_the_crossed_product_gram_determinant():
    stable = oa.discriminant(oa.OrderBasis.iota_b_stable())
    assert stable["determinant"] == oa.discriminant()["determinant"]
    assert stable["factorization"] == {2: 6, 7: 3}


def test_b_cubed_but_not_b_normalises_the_crossed_product_order():
    basis = oa.OrderBasis.standard()

    def normalises(g: AlgElt) -> bool:
        g_inv = g.inverse()
        return all(oa.is_K_integral(c)
                   for e in basis.elements
                   for c in basis.coordinates(g * e * g_inv))

    b = b_element()
    assert normalises(b) is False
    assert normalises(b * b * b) is True


def test_plain_involution_preserves_the_order():
    basis = oa.OrderBasis.standard()
    for x in basis.elements:
        coords = basis.coordinates(x.iota())
        assert all(oa.is_K_integral(c) for c in coords)


def _fresh_coordinates(basis: oa.OrderBasis, x: AlgElt) -> list[CycElt]:
    """The definition `coordinates` caches: eliminate the 18x18 rational
    system with columns e_k, lambda*e_k and right-hand side x from scratch."""
    def vec(a: AlgElt) -> list[Fraction]:
        return list(a.x0.coeffs + a.x1.coeffs + a.x2.coeffs)

    cols = [v for e in basis.elements for v in (vec(e), vec(e.scale(lam())))]
    rows = [[c[r] for c in cols] + [vec(x)[r]] for r in range(18)]
    for col in range(18):
        piv = next(r for r in range(col, 18) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(18):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    sol = [row[18] for row in rows]
    return [CycElt.rational(7, sol[2 * k]) + lam() * sol[2 * k + 1] for k in range(9)]


def test_cached_coordinates_match_a_fresh_elimination_and_rebuild_x():
    b = b_element()
    x = AlgElt(zeta7(), lam(), CycElt.rational(7, Fraction(5, 3)))
    for basis in (oa.OrderBasis.standard(), oa.OrderBasis.iota_b_stable()):
        e = basis.elements
        for y in (e[0] * e[4], e[8] * e[5] + e[1], x, x.iota_b(b), b.inverse()):
            coords = basis.coordinates(y)
            assert coords == _fresh_coordinates(basis, y)
            assert all(c.in_K() for c in coords)
            rebuilt = AlgElt.zero()
            for c, ek in zip(coords, e):
                rebuilt = rebuilt + ek.scale(c)
            assert rebuilt == y


def test_factor_int_stops_at_the_square_root():
    assert oa._factor_int(1_000_000_007) == {1_000_000_007: 1}
    assert oa._factor_int(-2**6 * 7**3 * 10_000_019) == {2: 6, 7: 3, 10_000_019: 1}


def test_the_order_and_the_config_share_one_trial_division():
    assert oa._factor_int is ballquot.factor_int


def test_congruence_index():
    assert oa.congruence_index(2, 3) == 7
    assert oa.congruence_index(3, 3) == 13
    assert oa.congruence_index(2, 1) == 1
    assert oa.congruence_index(4, 3) == 21 and oa.congruence_index(49, 2) == 50


@pytest.mark.parametrize("q", [6, 12, 15, 1, 0, -4])
def test_congruence_index_refuses_a_q_that_is_not_a_prime_power(q):
    with pytest.raises(ValueError, match="^need a prime power q >= 2 and degree d >= 1$"):
        oa.congruence_index(q, 3)


@pytest.mark.parametrize("q, d, kind", [(4.0, 3, "float"), (2, 3.0, "float"), (True, 3, "bool"),
                                        (2, True, "bool"), (Fraction(2), 3, "Fraction")])
def test_congruence_index_refuses_a_q_or_d_that_is_not_an_int(q, d, kind):
    with pytest.raises(TypeError, match=f"must be an int, not {kind}$"):
        oa.congruence_index(q, d)


def test_torsion_orders():
    rep = oa.torsion_orders()
    assert rep.allowed_orders == frozenset({1, 7})
    assert 2 in rep.excluded
    assert 14 in rep.excluded


def test_every_torsion_candidate_is_allowed_or_excluded_with_a_reason():
    rep = oa.torsion_orders()
    candidates = {m for m in range(2, 43) if euler_phi(m) in (1, 2, 3, 6)}
    assert not rep.allowed_orders & set(rep.excluded)
    assert rep.allowed_orders | set(rep.excluded) == candidates | {1}
    for m in (3, 4, 6):
        assert rep.excluded[m] == f"Q(sqrt(-7)) is not contained in Q(zeta_{m})"


def test_torsion_free_check():
    assert oa.torsion_free_check(2, 7) is True
    assert oa.torsion_free_check(7, 7) is False


@pytest.mark.parametrize("bad", [0.1, "3", True], ids=["float", "str", "bool"])
def test_torsion_free_check_refuses_a_non_int(bad):
    with pytest.raises(TypeError, match=f"must be an int, not {type(bad).__name__}$"):
        oa.torsion_free_check(bad, 7)
    with pytest.raises(TypeError, match=f"must be an int, not {type(bad).__name__}$"):
        oa.torsion_free_check(2, bad)
