from fractions import Fraction

import pytest

from ballquot import classifier as cl


def fake_plane():
    return cl.ball_quotient_invariants(Fraction(3), Fraction(0), {2: 10, 3: 28})


def test_ball_quotient_invariants():
    s = fake_plane()
    assert s.c1_sq == 9
    assert s.chi == 1
    assert s.p_g == 0 and s.q_irr == 0
    assert s.signature == 1
    assert s.minimal


@pytest.mark.parametrize("c2", [Fraction(3), Fraction(9), Fraction(21), Fraction(1, 7)])
@pytest.mark.parametrize("q", [Fraction(0), Fraction(1)])
def test_ball_quotient_invariants_follow_from_c2(c2, q):
    s = cl.ball_quotient_invariants(c2, q, {2: 1, 3: 1})
    assert s.c2 == c2 and s.c1_sq == 3 * c2
    assert s.chi == s.signature == c2 / 3
    assert s.p_g == s.chi - 1 + q
    assert s.q_irr == q and s.plurigenera == {2: 1, 3: 1} and s.minimal


def test_fake_plane_is_general_type():
    s = fake_plane()
    kod, trace = cl.kodaira_classify(s)
    assert kod == 2
    assert cl.is_fake_projective_plane(s, kod) is True
    assert set(trace) == {-1, 0, 1}


def test_resolved_quotients_are_properly_elliptic():
    for p2, p3 in ((1, 4), (1, 1)):
        s = cl.invariants_from_resolution(Fraction(12), Fraction(-8), Fraction(0),
                                          {2: p2, 3: p3}, minimal=True)
        kod, _ = cl.kodaira_classify(s)
        assert kod == 1
        assert cl.is_fake_projective_plane(s, kod) is False


def test_all_zero_plurigenera_means_negative_kodaira_dimension():
    s = cl.SurfaceInvariants(Fraction(3), Fraction(9), Fraction(0), Fraction(0),
                             Fraction(1), Fraction(1), {2: 0, 3: 0}, True)
    kod, _ = cl.kodaira_classify(s)
    assert kod == -1


def test_ambiguous_data_raises():
    # P_2 = P_3 = 1 with p_g = 1 on a non-minimal surface leaves 0 and 1
    s = cl.SurfaceInvariants(Fraction(12), Fraction(0), Fraction(0), Fraction(1),
                             Fraction(2), Fraction(-8), {2: 1, 3: 1}, False)
    with pytest.raises(cl.Ambiguous):
        cl.kodaira_classify(s)


def test_fiber_euler_numbers():
    assert cl.KodairaFiber("I_3", 1, ("a", "b", "c")).euler() == 3
    assert cl.KodairaFiber("I_9", 1, tuple("abcdefghi")).euler() == 9
    assert cl.KodairaFiber("smooth", 2, ()).euler() == 0


def test_fibration_euler_check():
    fibers = [cl.KodairaFiber("I_3", 1, (f"c{i}{j}" for i in "x" for j in "abc"))
              for _ in range(4)]
    fibers = [cl.KodairaFiber("I_3", 1, (f"f{k}a", f"f{k}b", f"f{k}c"))
              for k in range(4)]
    assert cl.fibration_euler_check(fibers, Fraction(12))
    assert not cl.fibration_euler_check(fibers[:3], Fraction(12))


def test_fiber_component_accounting():
    # one point with chain (-3, -2, -2): E_1_1 is a (-3)-curve, E_1_2 and E_1_3
    # are (-2)-curves
    chains = [(-3, -2, -2)]
    fibers = [cl.KodairaFiber("I_3", 1, ("E_1_2", "E_1_3", "D_0"))]
    assert cl.fiber_component_accounting(fibers, chains)
    # a (-2)-curve in two fibers is rejected
    twice = fibers + [cl.KodairaFiber("I_3", 1, ("E_1_2", "x", "y"))]
    assert not cl.fiber_component_accounting(twice, chains)
    # a (-2)-curve in no fiber is rejected
    missing = [cl.KodairaFiber("I_2", 1, ("E_1_2", "D_0"))]
    assert not cl.fiber_component_accounting(missing, chains)
    # a (-3)-curve inside a fiber is rejected
    minus3 = [cl.KodairaFiber("I_4", 1, ("E_1_1", "E_1_2", "E_1_3", "D_0"))]
    assert not cl.fiber_component_accounting(minus3, chains)
    # an E_ name that no chain has is rejected
    unknown = fibers + [cl.KodairaFiber("I_1", 1, ("E_2_1",))]
    assert not cl.fiber_component_accounting(unknown, chains)
    # an I_n fiber with other than n components is rejected
    assert not cl.fiber_component_accounting(
        [cl.KodairaFiber("I_2", 1, ("E_1_2", "E_1_3", "D_0"))], chains)
