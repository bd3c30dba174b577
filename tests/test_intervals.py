"""Exact rational enclosures of pi, of real cyclotomic numbers and of
symbolic reals, checked against mpmath at a much higher precision."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballquot.cyclotomic import CycElt, zeta7
from ballquot.symreal import SymbolicReal, pi_interval

CASES = settings(max_examples=100, deadline=None, derandomize=True)
REF_BITS = 300


def exact(x: mpmath.mpf, bits: int = REF_BITS) -> Fraction:
    """x rounded down to a multiple of 2^-bits, as a Fraction."""
    with mpmath.workprec(2 * bits + 64):
        return Fraction(int(mpmath.floor(x * mpmath.mpf(2) ** bits)), 2 ** bits)


@pytest.mark.parametrize("bits", [32, 64, 256, 1024])
def test_pi_interval_encloses_pi(bits):
    with mpmath.workprec(bits + REF_BITS):
        pi = exact(+mpmath.pi, bits + REF_BITS - 8)
    box = pi_interval(bits)
    assert box.a <= pi <= box.b
    assert box.b - box.a <= Fraction(1, 2 ** bits)


def real_parts(n: int):
    """y = x + conj(x) for x in Q(zeta_n) with small rational coordinates."""
    d = len(CycElt.one(n).num)
    coeff = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))
    return st.lists(coeff, min_size=d, max_size=d).map(
        lambda c: CycElt(n, c) + CycElt(n, c).conjugate())


def reference_value(y: CycElt) -> mpmath.mpf:
    with mpmath.workprec(REF_BITS):
        return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator
                           * mpmath.cos(2 * mpmath.pi * i / y.modulus)
                           for i, c in enumerate(y.coeffs) if c)


def check_against_reference(y: CycElt) -> None:
    if y.is_zero():
        assert y.sign() == 0
        return
    ref = reference_value(y)
    box = y.interval(64)
    assert box.a <= exact(ref) <= box.b
    assert y.sign() == (1 if ref > 0 else -1)


@CASES
@given(real_parts(7))
def test_real_elements_of_q_zeta7(y):
    check_against_reference(y)


@CASES
@given(real_parts(21))
def test_real_elements_of_q_zeta21(y):
    check_against_reference(y)


@pytest.mark.parametrize("k", [60, 200, 1000])
def test_sign_separates_neighbouring_dyadics(k):
    with mpmath.workprec(k + 100):
        p = int(mpmath.floor(2 * mpmath.cos(2 * mpmath.pi / 7) * mpmath.mpf(2) ** k))
    c = zeta7() + zeta7().conjugate()
    assert (c - CycElt.rational(7, Fraction(p, 2 ** k))).sign() == 1
    assert (c - CycElt.rational(7, Fraction(p + 1, 2 ** k))).sign() == -1


def symbolic_term(coeff: Fraction, pi_power: int, seven_half_power: int):
    """The term coeff * pi^pi_power * sqrt(7)^seven_half_power, and its value
    at REF_BITS bits."""
    with mpmath.workprec(REF_BITS):
        value = (mpmath.mpf(coeff.numerator) / coeff.denominator
                 * mpmath.pi ** pi_power * mpmath.sqrt(7) ** seven_half_power)
    return SymbolicReal.term(coeff, pi_power, seven_half_power), exact(value)


@pytest.mark.parametrize("pi_power", range(-6, 7))
@pytest.mark.parametrize("seven_half_power", [0, 1])
@pytest.mark.parametrize("coeff", [Fraction(32, 2401), Fraction(-7, 3)])
def test_symbolic_interval_encloses_the_value(pi_power, seven_half_power, coeff):
    x, u = symbolic_term(coeff, pi_power, seven_half_power)
    y, v = symbolic_term(Fraction(5, 2), 1, 1)
    slack = Fraction(1, 2 ** (REF_BITS - 32))  # the reference's own error
    for z, value in ((x, u), (x * y, u * v)):
        box = z.interval()
        assert box.a - slack <= value <= box.b + slack
        assert box.b - box.a < Fraction(1, 2 ** 40)
