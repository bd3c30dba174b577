import math
from collections import Counter
from fractions import Fraction

import pytest

from ballquot import singularities as sg


def test_chain_expansions():
    assert sg.hj_expand(sg.CyclicSingularity(7, 3)).self_intersections == (-3, -2, -2)
    assert sg.hj_expand(sg.CyclicSingularity(3, 2)).self_intersections == (-2, -2)
    assert sg.hj_expand(sg.CyclicSingularity(7, 1)).self_intersections == (-7,)


def test_chain_determinant_recovers_the_order():
    for n, q in ((7, 3), (3, 2), (7, 1), (5, 2), (11, 4)):
        ch = sg.hj_expand(sg.CyclicSingularity(n, q))
        assert abs(ch.determinant()) == n
    for n in range(2, 61):
        for q in range(1, n):
            if math.gcd(n, q) == 1:
                ch = sg.hj_expand(sg.CyclicSingularity(n, q))
                assert ch.determinant() == (-1) ** len(ch.self_intersections) * n, (n, q)


def test_non_primitive_type_rejected():
    with pytest.raises(ValueError):
        sg.CyclicSingularity(6, 2)
    with pytest.raises(ValueError):
        sg.CyclicSingularity(7, 7)


def test_rotation_to_singularity_type():
    t = sg.singularity_type_from_rotation(7, 1, 3)
    assert (t.n, t.q) == (7, 3)


def test_dedekind_sums():
    assert sg.dedekind_sum(3, 7) == Fraction(-1, 14)
    assert sg.dedekind_sum(2, 3) == Fraction(-1, 18)
    assert sg.dedekind_sum(1, 2) == 0


def _sawtooth(x: Fraction) -> Fraction:
    x -= math.floor(x)
    return x - Fraction(1, 2) if x else Fraction(0)


def direct_dedekind_sum(q: int, n: int) -> Fraction:
    return sum((_sawtooth(Fraction(k, n)) * _sawtooth(Fraction(k * q, n))
                for k in range(1, n)), Fraction(0))


def test_dedekind_sum_matches_the_direct_sum():
    checked = 0
    for n in range(1, 61):
        for q in range(n):
            if math.gcd(q, n) == 1:
                expect = direct_dedekind_sum(q, n)
                for shift in (-2 * n, -n, 0, n):
                    assert sg.dedekind_sum(q + shift, n) == expect, (q + shift, n)
                checked += 1
    assert checked > 1000


def test_dedekind_sum_closed_forms_at_a_large_prime():
    n = 10**9 + 7
    assert sg.dedekind_sum(1, n) == Fraction((n - 1) * (n - 2), 12 * n)
    assert sg.dedekind_sum(2, n) == Fraction((n - 1) * (n - 5), 24 * n)


def test_signature_defects():
    assert sg.signature_defect(sg.CyclicSingularity(7, 3)) == Fraction(2, 7)
    assert sg.signature_defect(sg.CyclicSingularity(3, 2)) == Fraction(2, 9)
    assert sg.signature_defect(sg.CyclicSingularity(2, 1)) == 0


X_SEVEN = sg.OrbifoldSurface(Fraction(3), Fraction(1),
                             (sg.CyclicSingularity(7, 3),) * 3)
X_TWENTYONE = sg.OrbifoldSurface(Fraction(3), Fraction(1),
                                 (sg.CyclicSingularity(7, 3),
                                  sg.CyclicSingularity(3, 2),
                                  sg.CyclicSingularity(3, 2),
                                  sg.CyclicSingularity(3, 2)))


def test_orbifold_heights():
    assert sg.euler_height(X_SEVEN) == Fraction(3, 7)
    assert sg.signature_height(X_SEVEN) == Fraction(1, 7)
    assert sg.euler_height(X_TWENTYONE) == Fraction(1, 7)
    assert sg.signature_height(X_TWENTYONE) == Fraction(1, 21)


def test_height_multiplicativity_through_the_tower():
    assert sg.check_cover_multiplicativity(Fraction(3), Fraction(1), X_SEVEN, 7)
    assert sg.check_cover_multiplicativity(Fraction(3), Fraction(1), X_TWENTYONE, 21)
    assert sg.euler_height(X_SEVEN) == 3 * sg.euler_height(X_TWENTYONE)
    assert sg.signature_height(X_SEVEN) == 3 * sg.signature_height(X_TWENTYONE)


def test_resolution_invariants():
    assert sg.resolve_invariants(X_SEVEN) == (12, -8, 9)
    assert sg.resolve_invariants(X_TWENTYONE) == (12, -8, 9)


def test_resolution_counts_every_chain_entry():
    for n in range(2, 301):
        for q in range(1, n):
            if math.gcd(n, q) == 1:
                p = sg.CyclicSingularity(n, q)
                x = sg.OrbifoldSurface(Fraction(0), Fraction(0), (p,))
                assert sg.resolve_invariants(x)[2] == len(sg.hj_expand(p).self_intersections)


def test_resolution_of_a_huge_chain_is_counted_not_built():
    n = 10**18 + 9
    x = sg.OrbifoldSurface(Fraction(3), Fraction(1), (sg.CyclicSingularity(n, n - 1),))
    assert sg.resolve_invariants(x) == (n + 2, 2 - n, n - 1)


def test_branch_solver_finds_the_unique_solution():
    sols = sg.solve_branch_data(Fraction(3), Fraction(1),
                                [sg.CyclicSingularity(7, 3)],
                                Fraction(1, 7), Fraction(1, 21), 12)
    assert len(sols) == 1
    count, pts = sols[0]
    assert count == 3
    assert sorted((p.n, p.q) for p in pts) == [(3, 2)] * 3


def test_the_solved_branch_data_complete_the_normalizer_quotients_points():
    """Searched from X/Gamma~'s own Euler number and signature and its (7,3)
    point, the unique solution is the rest of the points `QUOTIENTS` states."""
    xgt, c73 = sg.QUOTIENTS["gamma_tilde"], sg.CyclicSingularity(7, 3)
    (_, extra), = sg.solve_branch_data(xgt.euler, xgt.signature, [c73],
                                       Fraction(1, 7), Fraction(1, 21), 12)
    assert Counter(extra + (c73,)) == Counter(xgt.points)


def test_runs_of_twos_expand_to_the_whole_chain():
    assert sg.hj_expand(sg.CyclicSingularity(100001, 100000)).self_intersections == (-2,) * 100000
    assert sg.hj_expand(sg.CyclicSingularity(11, 9)).self_intersections == (-2, -2, -2, -2, -3)


@pytest.mark.parametrize("bad", [0.1, "3", True], ids=["float", "str", "bool"])
def test_a_height_or_resolution_input_that_is_not_exact_is_a_type_error(bad):
    x = sg.QUOTIENTS["gamma"]
    branch_args = (Fraction(3), Fraction(1), [], Fraction(1, 7), Fraction(1, 21), 12)
    calls = [
        lambda: sg.euler_height(x._replace(euler=bad)),
        lambda: sg.signature_height(x._replace(signature=bad)),
        lambda: sg.resolve_invariants(x._replace(euler=bad)),
        lambda: sg.resolve_invariants(x._replace(signature=bad)),
        lambda: sg.check_cover_multiplicativity(bad, Fraction(1), x, 7),
        lambda: sg.check_cover_multiplicativity(Fraction(4), bad, x, 7),
        lambda: sg.check_cover_multiplicativity(Fraction(3), Fraction(1), x, bad),
        *(lambda k=k: sg.solve_branch_data(*branch_args[:k], bad, *branch_args[k + 1:])
          for k in (0, 1, 3, 4)),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=f"not {type(bad).__name__}$"):
            call()
