from fractions import Fraction

import pytest

from ballquot.symreal import ONE, PI, SQRT7, NotRational, SymbolicReal


def test_rational_roundtrip():
    x = SymbolicReal.rational(Fraction(3, 7))
    assert x.as_rational() == Fraction(3, 7)


def test_even_radical_power_folds_into_coefficient():
    x = SymbolicReal.term(1, 0, 2)
    assert x.as_rational() == 7
    y = SymbolicReal.term(Fraction(1, 7), 0, -2)
    assert y.as_rational() == Fraction(1, 49)


def test_negative_half_power_normalizes():
    # 7^(-1/2) = (1/7) * 7^(1/2)
    x = SymbolicReal.term(1, 0, -1)
    assert (x.coeff, x.pi_power, x.root) == (Fraction(1, 7), 0, 1)


def test_pi_powers_add_under_multiplication():
    assert (PI * PI * SQRT7 * SQRT7) == SymbolicReal.term(7, 2, 0)


def test_zero_is_one_record():
    zero = SymbolicReal.term(0, 3, 1)
    assert zero == SymbolicReal.rational(0) and hash(zero) == hash(SymbolicReal.rational(0))
    assert (zero.coeff, zero.pi_power, zero.root) == (0, 0, 0)
    assert str(zero) == "0" and zero.as_rational() == 0
    assert PI * zero == zero * SQRT7 == zero


def test_as_rational_rejects_residual_pi():
    with pytest.raises(NotRational):
        PI.as_rational()
    with pytest.raises(NotRational):
        SQRT7.as_rational()
    with pytest.raises(NotRational, match=r"pi\^-2"):
        (SymbolicReal.term(3, -1, 2) * SQRT7 * SQRT7 * SymbolicReal.term(1, -1)).as_rational()
    with pytest.raises(NotRational, match=r"7\^\(1/2\)"):
        (SymbolicReal.term(2, -1, 3) * PI).as_rational()
    assert (SymbolicReal.term(2, -1, 3) * PI * SQRT7).as_rational() == 98


def test_float_evaluation():
    import mpmath
    x = SymbolicReal.term(Fraction(32, 2401), 3, 1)
    expect = Fraction(32, 2401) * mpmath.pi ** 3 * mpmath.sqrt(7)
    assert abs(x.to_float() - expect) < 1e-15


def test_str_rendering():
    assert str(SymbolicReal.term(Fraction(32, 2401), 3, 1)) == "32/2401 * pi^3 * 7^(1/2)"
    assert str(PI) == "1 * pi" and str(ONE) == "1"
    assert str(SymbolicReal.rational(0)) == "0"


# ---------------------------------------------------------------------------
# only canonical, exact records

@pytest.mark.parametrize("record", [
    (Fraction(1), 0, 2),         # 7 is the record (7, 0, 0)
    (Fraction(1), 0, -1),
    (Fraction(0), 1, 0),         # zero is the one record (0, 0, 0)
    (Fraction(0), 0, 1),
    (1.5, 0, 0), (1, 0, 0),      # the coefficient is a Fraction
    (Fraction(1), True, 0), (Fraction(1), 0, True), (Fraction(1), 1.0, 0)])
def test_the_constructor_refuses_a_record_term_would_not_build(record):
    with pytest.raises(ValueError):
        SymbolicReal(*record)


def test_the_constructor_accepts_what_term_builds():
    for x in (ONE, PI, SQRT7, SymbolicReal.term(Fraction(-3, 5), -2, 5), SymbolicReal.rational(0)):
        assert SymbolicReal(x.coeff, x.pi_power, x.root) == x
    assert SymbolicReal(Fraction(7), 0, 0) == SymbolicReal.rational(7)


@pytest.mark.parametrize("bad", [0.1, 1.5, True, "1"])
def test_term_refuses_anything_but_an_int_or_a_fraction(bad):
    with pytest.raises(TypeError):
        SymbolicReal.term(bad)
    with pytest.raises(TypeError):
        SymbolicReal.rational(bad)
