from fractions import Fraction

import pytest

from ballquot.cyclotomic import (CycElt, alpha, cyclotomic_polynomial,
                                 euler_phi, lam, lam_bar, zeta7)
from tests.test_properties import ref_reduce


def test_cyclotomic_polynomial():
    assert cyclotomic_polynomial(7) == tuple(Fraction(1) for _ in range(7))
    assert cyclotomic_polynomial(21) == tuple(
        Fraction(c) for c in (1, -1, 0, 1, -1, 0, 1, 0, -1, 1, 0, -1, 1))


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 6, 7, 14, 21)] == [1, 1, 2, 2, 6, 6, 12]


def test_zeta_has_order_seven():
    z = zeta7()
    p = CycElt.one(7)
    for _ in range(7):
        p = p * z
    assert p == CycElt.one(7)  # z^7 = 1


def test_lambda_times_conjugate_is_two():
    prod = lam() * lam_bar()
    assert prod.is_rational() and prod.as_rational() == 2


def test_lambda_is_galois_stable():
    # lambda = z + z^2 + z^4 is fixed by the order-3 automorphism z -> z^2
    assert lam().galois(2) == lam()
    assert lam().conjugate() == lam_bar()
    assert lam().in_K() and lam_bar().in_K()


def test_alpha_has_norm_one():
    a = alpha()
    assert a.in_K()
    assert (a * a.conjugate()).as_rational() == 1


def test_galois_automorphism_has_order_three_over_K():
    z = zeta7()
    s = z.galois(2)
    assert s != z
    assert s.galois(2).galois(2) == z


def test_norms():
    assert (lam() + lam_bar()).as_rational() == -1


def test_inverse_and_division():
    x = zeta7() + CycElt.rational(7, Fraction(2))
    assert (x * x.inverse()).as_rational() == 1
    assert ((x / x)).as_rational() == 1
    with pytest.raises(Exception):
        CycElt.zero(7).inverse()


def test_sign_and_interval():
    assert CycElt.rational(7, Fraction(2)).sign() == 1
    assert CycElt.rational(7, Fraction(-3)).sign() == -1
    real_part = lam() + lam_bar()
    box = real_part.interval(64)
    assert box.a <= -1 <= box.b


# ---------------------------------------------------------------------------
# exact types at construction

def test_int_polynomial_stays_exact():
    y = CycElt.from_poly(7, [1, 2, 3])
    inv = y.inverse()
    assert y * inv == CycElt.one(7)
    assert all(type(c) is Fraction for c in y.coeffs + inv.coeffs)


def test_float_coefficient_is_rejected():
    with pytest.raises(TypeError):
        CycElt(7, (0.5, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("bad", [0.5, True, "1", None, 1j])
def test_only_int_and_fraction_coefficients(bad):
    with pytest.raises(TypeError):
        CycElt(7, (bad, 0, 0, 0, 0, 0))
    with pytest.raises(TypeError):
        CycElt.from_poly(7, [1, bad])
    with pytest.raises(TypeError):
        CycElt.rational(7, bad)


def test_wrong_coefficient_count_is_a_value_error():
    with pytest.raises(ValueError):
        CycElt(7, (1, 2, 3))
    with pytest.raises(ValueError):
        CycElt(21, (0,) * 6)


def test_equal_elements_from_different_paths_are_equal_and_hash_equal():
    half = CycElt.rational(7, Fraction(1, 2))
    pairs = [
        (CycElt(7, (Fraction(2, 4), 0, 0, 0, 0, 0)), half),
        (CycElt(7, (Fraction(3, 6), Fraction(0, 5), 0, 0, 0, 0)), half),
        (CycElt.from_poly(7, [0] * 7 + [1]), CycElt.one(7)),          # x^7 = 1
        (CycElt.from_poly(7, [1] * 7), CycElt.zero(7)),                # Phi_7 itself
        (CycElt.from_poly(7, [0] * 6 + [1]), CycElt(7, (-1,) * 6)),   # zeta^6
        (CycElt.from_poly(7, [Fraction(1, 3)] * 8), CycElt.rational(7, Fraction(1, 3))),  # (Phi_7 + x^7)/3
        (CycElt.zeta(21, 12), CycElt.zeta(21, -9)),
        (CycElt.from_poly(21, [0] * 21 + [Fraction(-4, 6)]), CycElt.rational(21, Fraction(-2, 3))),
        (lam() * lam_bar() * Fraction(1, 2), CycElt.one(7)),
        (zeta7() - zeta7(), CycElt.zero(7)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert a.coeffs == b.coeffs
    assert CycElt.zero(7) != CycElt.zero(21)


def test_elements_are_immutable():
    x = zeta7()
    with pytest.raises(AttributeError):
        x.modulus = 21
    with pytest.raises(AttributeError):
        x.den = 2
    with pytest.raises(AttributeError):
        del x.num


# ---------------------------------------------------------------------------
# the group-ring builder, and moduli below 1

def test_from_group_ring_reads_n_integers_of_the_group_ring():
    assert CycElt.from_group_ring(7, [1] * 7) == CycElt.zero(7)  # Phi_7 itself
    assert CycElt.from_group_ring(7, [0] * 6 + [2], 4) == CycElt.zeta(7, 6) * Fraction(1, 2)
    poly = [3, -1, 0, 2, 5, -4, 1, 0, 0, 7, -2, 1, 6, 0, -3, 2, 1, 1, -5, 0, 4]
    assert CycElt.from_group_ring(21, poly, 6).coeffs == tuple(c / 6 for c in ref_reduce(21, poly))
    for short_or_long in ([0] * 6, [0] * 8):
        with pytest.raises(ValueError):
            CycElt.from_group_ring(7, short_or_long)


def test_from_K_is_p_plus_q_lambda_over_den():
    for p in range(-4, 5):
        for q in range(-4, 5):
            for den in (1, 2, 6):
                want = CycElt.from_group_ring(7, [p, q, q, 0, q, 0, 0], den)
                assert CycElt.from_K(p, q, den) == want
                assert want == (CycElt.rational(7, p) + lam() * q) * Fraction(1, den)
    assert CycElt.from_K(4, -2, 6).num == (2, -1, -1, 0, -1, 0)  # canonical: over 3


@pytest.mark.parametrize("n", [0, -5])
def test_a_modulus_below_one_is_a_value_error(n):
    builders = [lambda: CycElt(n, ()), lambda: CycElt.zero(n), lambda: CycElt.one(n),
                lambda: CycElt.zeta(n), lambda: CycElt.from_poly(n, [1, 2]),
                lambda: CycElt.from_group_ring(n, []), lambda: euler_phi(n)]
    for build in builders:
        with pytest.raises(ValueError, match="at least 1"):
            build()


@pytest.mark.parametrize("n", [0, -5])
def test_cyclotomic_polynomial_refuses_a_modulus_below_one(n):
    with pytest.raises(ValueError, match="at least 1"):
        cyclotomic_polynomial(n)
