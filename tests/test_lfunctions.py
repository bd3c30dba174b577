import math
from fractions import Fraction

import pytest
import sympy
from sympy.functions.combinatorial.numbers import kronecker_symbol as sympy_kronecker

from ballquot import lfunctions as lf
from ballquot.symreal import NotRational, SymbolicReal


def test_bernoulli_numbers():
    vals = [lf.bernoulli_number(n) for n in range(7)]
    assert vals == [1, Fraction(-1, 2), Fraction(1, 6), 0,
                    Fraction(-1, 30), 0, Fraction(1, 42)]
    assert lf.bernoulli_number(12) == Fraction(-691, 2730)
    # sympy's B_1 is +1/2, so B_1 = -1/2 is checked above alone
    assert all(lf.bernoulli_number(n) == sympy.bernoulli(n) for n in range(2, 201))


def test_kronecker_symbol_is_the_quadratic_character_mod_seven():
    chi = lf.DirichletCharacter(-7)
    assert chi.modulus == 7
    assert [chi(m) for m in range(7)] == [0, 1, 1, -1, 1, -1, -1]
    assert chi.is_odd()


def test_kronecker_symbol_agrees_with_sympy():
    assert all(lf.kronecker_symbol(d, n) == sympy_kronecker(d, n)
               for d in range(-200, 201) for n in range(1, 301))


@pytest.mark.parametrize("n", [0, -3])
def test_kronecker_symbol_refuses_n_below_one(n):
    with pytest.raises(ValueError):
        lf.kronecker_symbol(-7, n)


@pytest.mark.parametrize("d", [-3, -4, -7, -8, 5, 8, 12, -20, None])
def test_generalized_bernoulli_agrees_with_the_sympy_sum_over_residues(d):
    # None is the trivial character mod 1, whose B_{n,chi} is B_n(1)
    chi = lf.DirichletCharacter(1 if d is None else d)
    f = chi.modulus
    for n in range(1, 13):
        want = sympy.Integer(f) ** (n - 1) * sum(
            chi(a) * sympy.bernoulli(n, sympy.Rational(a, f)) for a in range(1, f + 1))
        got = lf.generalized_bernoulli(n, chi)
        assert type(got) is Fraction and (got.numerator, got.denominator) == (want.p, want.q)


def test_generalized_bernoulli_number():
    chi = lf.DirichletCharacter(-7)
    assert lf.generalized_bernoulli(3, chi) == Fraction(48, 7)
    # B_{1,chi} = -h(-7) = -1 for this character
    assert lf.generalized_bernoulli(1, chi) == -1


def test_zeta_at_two():
    assert lf.riemann_zeta(2) == SymbolicReal.term(Fraction(1, 6), 2, 0)
    assert lf.riemann_zeta(4) == SymbolicReal.term(Fraction(1, 90), 4, 0)


@pytest.mark.parametrize("n, coeff", [(6, Fraction(1, 945)), (8, Fraction(1, 9450)),
                                      (10, Fraction(1, 93555)),
                                      (12, Fraction(691, 638512875))])
def test_zeta_at_even_arguments_is_the_trivial_character_l_value(n, coeff):
    assert lf.riemann_zeta(n) == SymbolicReal.term(coeff, n, 0)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_zeta_outside_the_positive_even_arguments_is_a_parity_mismatch(n):
    with pytest.raises(lf.ParityMismatch):
        lf.riemann_zeta(n)


def test_l_value_closed_form():
    chi = lf.DirichletCharacter(-7)
    val = lf.dirichlet_L_value(3, chi)
    assert val == SymbolicReal.term(Fraction(32, 2401), 3, 1)


def test_l_value_parity_guard():
    chi = lf.DirichletCharacter(-7)
    with pytest.raises(lf.ParityMismatch):
        lf.dirichlet_L_value(2, chi)


def test_series_oracle_agrees_with_closed_form():
    # -7, -4 and 28 are the fundamental discriminants whose sqrt(|d|) the
    # symbolic ring can write, besides 1; each at every parity-matching n
    cases = [(-7, 3)] + [(-4, n) for n in (3, 5, 7, 9)] + [(28, n) for n in (2, 4, 6, 8)]
    for d, n in cases:
        chi = lf.DirichletCharacter(d)
        val = lf.dirichlet_L_value(n, chi)
        series, tail = lf.l_series_oracle(n, chi, 200000)
        assert abs(float(val.to_float()) - series) <= tail, (d, n)


@pytest.mark.parametrize("d", [-3, 5, -8, 8, 12])
def test_a_character_whose_root_is_not_symbolic_is_refused_before_any_bernoulli_sum(
        d, monkeypatch):
    def refuse(*args):
        raise AssertionError("B_{n,chi} was computed for a character the closed form refuses")

    monkeypatch.setattr(lf, "generalized_bernoulli", refuse)
    n = 3 if d < 0 else 2  # chi(-1) = (-1)^n
    with pytest.raises(ValueError, match=rf"^d = {d}: sqrt\({abs(d)}\) is outside the symbolic "):
        lf.dirichlet_L_value(n, lf.DirichletCharacter(d))


def is_fundamental_discriminant(d):
    """The definition: d = 1 mod 4 and squarefree, or d = 4m with m = 2, 3 mod 4
    and m squarefree."""
    def squarefree(m):
        return m != 0 and all(m % (p * p) for p in range(2, abs(m) + 1))
    if d % 4 == 1:
        return squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4)


def test_a_character_is_accepted_for_exactly_the_fundamental_discriminants():
    accepted = set()
    for d in range(-200, 201):
        try:
            chi = lf.DirichletCharacter(d)
        except ValueError as error:
            assert str(error) == f"d = {d} is neither 1 nor a fundamental discriminant"
            continue
        assert (chi.discriminant, chi.modulus, chi.is_odd()) == (d, abs(d), d < 0)
        accepted.add(d)
    assert accepted == {d for d in range(-200, 201) if is_fundamental_discriminant(d)}
    assert {-7, -4, -3, 1, 5, 8, 28} <= accepted


@pytest.mark.parametrize("d", [-28, -63, 0, 4, -1])
def test_a_discriminant_that_is_not_fundamental_is_refused(d):
    with pytest.raises(ValueError, match=f"^d = {d} is neither 1 nor a fundamental discriminant$"):
        lf.DirichletCharacter(d)


@pytest.mark.parametrize("d", [-7.0, True, "-7", None])
def test_a_discriminant_that_is_not_an_int_is_a_type_error(d):
    with pytest.raises(TypeError, match="^the discriminant must be an int, not "):
        lf.DirichletCharacter(d)


def test_printed_constant_disagrees_with_series():
    # regression guard: the printed closed form has the wrong magnitude and sign
    chi = lf.DirichletCharacter(-7)
    printed = SymbolicReal.term(Fraction(-7, 392), 3, 1)
    series, tail = lf.l_series_oracle(3, chi, 10000)
    assert abs(float(printed.to_float()) - series) > 1000 * tail


@pytest.mark.parametrize("d, n, terms", [(-7, 3, 20000), (-7, 3, 100000), (-7, 5, 1000),
                                         (-7, 7, 12345), (-7, 9, 10), (-4, 3, 999),
                                         (5, 2, 5000), (1, 2, 777)])
def test_the_series_oracle_is_bit_equal_to_the_sum_term_by_term(d, n, terms):
    chi = lf.DirichletCharacter(d)
    f = chi.modulus
    period = [chi(r) for r in range(f)]
    by_term = math.fsum(period[m % f] / m ** n for m in range(1, terms + 1))
    series, tail = lf.l_series_oracle(n, chi, terms)
    assert series.hex() == by_term.hex()
    assert tail == terms ** (1 - n) / (n - 1)


def test_covolume_is_exactly_rational():
    chi = lf.DirichletCharacter(-7)
    local = {"2": Fraction(3), "7": Fraction(1)}
    vol = lf.covolume(lf.riemann_zeta(2), lf.dirichlet_L_value(3, chi), local)
    assert vol == Fraction(3, 7)


def test_covolume_with_printed_constant_gives_wrong_rational():
    local = {"2": Fraction(3), "7": Fraction(1)}
    printed = SymbolicReal.term(Fraction(-7, 392), 3, 1)
    vol = lf.covolume(lf.riemann_zeta(2), printed, local)
    assert vol == Fraction(-147, 256)


def test_covolume_refuses_a_zeta_value_whose_pi_power_does_not_cancel():
    chi = lf.DirichletCharacter(-7)
    local = {"2": Fraction(3), "7": Fraction(1)}
    with pytest.raises(NotRational):
        lf.covolume(lf.riemann_zeta(4), lf.dirichlet_L_value(3, chi), local)


def test_covolume_doubles_with_a_local_factor():
    chi = lf.DirichletCharacter(-7)
    z2, l3 = lf.riemann_zeta(2), lf.dirichlet_L_value(3, chi)
    vol = lf.covolume(z2, l3, {"2": Fraction(3), "7": Fraction(1)})
    assert lf.covolume(z2, l3, {"2": Fraction(3), "7": Fraction(2)}) == 2 * vol
    assert lf.covolume(z2, l3, {"2": Fraction(6), "7": Fraction(1)}) == 2 * vol


def test_euler_number_of_cover():
    assert lf.euler_number_of_cover(Fraction(3, 7), 7) == 3
    assert lf.euler_number_of_cover(Fraction(1, 7), 7) == 1
