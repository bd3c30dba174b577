import math
from fractions import Fraction

import pytest

from ballquot import lfunctions as lf
from ballquot.symreal import SymbolicReal


def test_bernoulli_numbers():
    vals = [lf.bernoulli_number(n) for n in range(7)]
    assert vals == [1, Fraction(-1, 2), Fraction(1, 6), 0,
                    Fraction(-1, 30), 0, Fraction(1, 42)]
    assert lf.bernoulli_number(12) == Fraction(-691, 2730)


def test_kronecker_symbol_is_the_quadratic_character_mod_seven():
    chi = lf.DirichletCharacter.kronecker(-7)
    assert chi.modulus == 7
    assert [chi(m) for m in range(7)] == [0, 1, 1, -1, 1, -1, -1]
    assert chi.is_odd()


def test_generalized_bernoulli_number():
    chi = lf.DirichletCharacter.kronecker(-7)
    assert lf.generalized_bernoulli(3, chi) == Fraction(48, 7)
    # B_{1,chi} = -h(-7) = -1 for this character
    assert lf.generalized_bernoulli(1, chi) == -1


def test_zeta_at_two():
    assert lf.riemann_zeta(2) == SymbolicReal.term(Fraction(1, 6), 2, 0)
    assert lf.riemann_zeta(4) == SymbolicReal.term(Fraction(1, 90), 4, 0)


def test_l_value_closed_form():
    chi = lf.DirichletCharacter.kronecker(-7)
    val = lf.dirichlet_L_value(3, chi)
    assert val == SymbolicReal.term(Fraction(32, 2401), 3, 1)


def test_l_value_parity_guard():
    chi = lf.DirichletCharacter.kronecker(-7)
    with pytest.raises(lf.ParityMismatch):
        lf.dirichlet_L_value(2, chi)


def test_series_oracle_agrees_with_closed_form():
    chi = lf.DirichletCharacter.kronecker(-7)
    val = lf.dirichlet_L_value(3, chi)
    series, tail = lf.l_series_oracle(3, chi, 200000)
    assert abs(float(val.to_float()) - series) <= tail


def test_printed_constant_disagrees_with_series():
    # regression guard: the printed closed form has the wrong magnitude and sign
    chi = lf.DirichletCharacter.kronecker(-7)
    printed = SymbolicReal.term(Fraction(-7, 392), 3, 1)
    series, tail = lf.l_series_oracle(3, chi, 10000)
    assert abs(float(printed.to_float()) - series) > 1000 * tail


@pytest.mark.parametrize("d, n, terms", [(-7, 3, 20000), (-7, 3, 100000), (-7, 5, 1000),
                                         (-7, 7, 12345), (-7, 9, 10), (-4, 3, 999),
                                         (5, 2, 5000), (1, 2, 777)])
def test_the_series_oracle_is_bit_equal_to_the_sum_term_by_term(d, n, terms):
    chi = lf.DirichletCharacter.kronecker(d)
    f = chi.modulus
    period = [chi(r) for r in range(f)]
    by_term = math.fsum(period[m % f] / m ** n for m in range(1, terms + 1))
    series, tail = lf.l_series_oracle(n, chi, terms)
    assert series.hex() == by_term.hex()
    assert tail == terms ** (1 - n) / (n - 1)


def test_covolume_is_exactly_rational():
    chi = lf.DirichletCharacter.kronecker(-7)
    local = {"2": Fraction(3), "7": Fraction(1)}
    vol = lf.covolume(lf.VolumeInput(7, 1, 1, lf.riemann_zeta(2),
                                     lf.dirichlet_L_value(3, chi), local))
    assert vol == Fraction(3, 7)


def test_covolume_with_printed_constant_gives_wrong_rational():
    local = {"2": Fraction(3), "7": Fraction(1)}
    printed = SymbolicReal.term(Fraction(-7, 392), 3, 1)
    vol = lf.covolume(lf.VolumeInput(7, 1, 1, lf.riemann_zeta(2), printed, local))
    assert vol == Fraction(-147, 256)


def test_euler_number_of_cover():
    assert lf.euler_number_of_cover(Fraction(3, 7), 7) == 3
    assert lf.euler_number_of_cover(Fraction(1, 7), 7) == 1
