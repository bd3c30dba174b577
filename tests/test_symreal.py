from fractions import Fraction

import pytest

from ballquot.symreal import ONE, PI, SQRT7, ZERO, NotRational, SymbolicReal


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
    assert list(x.terms()) == [(0, 1, Fraction(1, 7))]


def test_pi_powers_add_under_multiplication():
    assert (PI * PI * SQRT7 * SQRT7) == SymbolicReal.term(7, 2, 0)


def test_addition_cancels_to_zero():
    x = SymbolicReal.term(Fraction(5, 3), 2, 1)
    assert (x - x) == ZERO
    assert (x + (-x)).is_zero()


def test_as_rational_rejects_residual_pi():
    with pytest.raises(NotRational):
        PI.as_rational()
    with pytest.raises(NotRational):
        SQRT7.as_rational()
    with pytest.raises(NotRational):
        (ONE + PI).as_rational()


def test_float_evaluation():
    import mpmath
    x = SymbolicReal.term(Fraction(32, 2401), 3, 1)
    expect = Fraction(32, 2401) * mpmath.pi ** 3 * mpmath.sqrt(7)
    assert abs(x.to_float() - expect) < 1e-15


def test_str_rendering():
    assert str(SymbolicReal.term(Fraction(32, 2401), 3, 1)) == "32/2401 * pi^3 * 7^(1/2)"
    assert str(ZERO) == "0"
