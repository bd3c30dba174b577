from fractions import Fraction

import pytest

from ballquot import matrix3 as m3
from ballquot.cyclic_algebra import (AlgElt, NotInvertible, NotIotaInvariant, b_element,
                                     from_matrix, is_division_algebra,
                                     u_matrix)
from ballquot.cyclotomic import CycElt, alpha, lam, lam_bar, zeta7


def test_u_cubed_equals_alpha():
    u = AlgElt.u()
    cube = u * u * u
    assert cube == AlgElt.from_L(alpha())


def test_twisted_commutation():
    # a * u = u * a^sigma for every a in the degree-6 field
    for a in (zeta7(), lam(), zeta7() * lam_bar() + CycElt.rational(7, 3)):
        left = AlgElt.from_L(a) * AlgElt.u()
        right = AlgElt.u() * AlgElt.from_L(a.galois(2))
        assert left == right


def test_matrix_representation_is_a_homomorphism():
    x = AlgElt(zeta7(), lam(), lam_bar())
    y = AlgElt(lam_bar(), CycElt.rational(7, Fraction(1, 2)), zeta7())
    assert (x * y).to_matrix() == m3.mat_mul(x.to_matrix(), y.to_matrix())
    assert from_matrix(x.to_matrix()) == x


def test_reduced_norm_and_trace_of_b():
    b = b_element()
    assert b.reduced_norm().as_rational() == 3
    assert b.reduced_trace().as_rational() == -3
    # characteristic polynomial x^3 + 3x^2 - 3x - 3, as (c2, c1, c0)
    coeffs = m3.char_poly(b.to_matrix())
    assert [c.as_rational() for c in coeffs] == [3, -3, -3]


def test_involution_fixes_b_and_reverses_products():
    b = b_element()
    assert b.iota() == b
    x = AlgElt(zeta7(), lam(), CycElt.rational(7, 2))
    y = AlgElt(lam_bar(), zeta7(), lam())
    assert (x * y).iota() == y.iota() * x.iota()
    assert x.iota().iota() == x


def test_involution_matches_conjugate_transpose():
    x = AlgElt(zeta7(), lam(), lam_bar())
    ct = m3.conj_transpose(x.to_matrix())
    assert x.iota().to_matrix() == ct


def test_twisted_involution_is_an_involution():
    b = b_element()
    x = AlgElt(zeta7(), lam(), CycElt.rational(7, Fraction(5, 3)))
    assert x.iota_b(b).iota_b(b) == x


def test_inverse():
    x = AlgElt(zeta7(), lam(), lam_bar())
    assert x * x.inverse() == AlgElt.one()
    with pytest.raises(NotInvertible):
        AlgElt.zero().inverse()


def test_division_algebra_criterion():
    verdict, witness = is_division_algebra()
    assert verdict is True
    assert witness["valuation_of_alpha"] == 1
    assert witness["residue_degree_in_L_over_K"] == 3
    # norm-one scalar alpha = 1 gives a split algebra
    split, _ = is_division_algebra(CycElt.one(7))
    assert split is False
    # alpha = 2 has odd valuation at both primes above 2, still division
    div2, _ = is_division_algebra(CycElt.rational(7, 2))
    assert div2 is True


def test_u_matrix_shape():
    U = u_matrix()
    assert U[1][0].as_rational() == 1 and U[2][1].as_rational() == 1
    assert U[0][2] == alpha()


def test_scale_is_left_multiplication():
    x = AlgElt(zeta7(), lam(), lam_bar())
    for c in (zeta7() + CycElt.rational(7, 2), lam_bar()):
        assert x.scale(c) == AlgElt.from_L(c) * x
    assert x.scale(Fraction(1, 3)) == AlgElt.from_L(CycElt.rational(7, Fraction(1, 3))) * x


def test_twisted_involution_rejects_a_bad_b():
    x = AlgElt(zeta7(), lam(), lam_bar())
    with pytest.raises(NotInvertible):
        x.iota_b(AlgElt.zero())
    with pytest.raises(NotIotaInvariant):
        x.iota_b(AlgElt.u())
