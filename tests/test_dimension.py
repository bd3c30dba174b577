import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ballquot import Frozen
from ballquot import dimension as dim
from ballquot.cli import main
from ballquot.cyclotomic import CycElt


def test_weight_two_and_three_dimensions():
    g = dim.build_gamma_dataset()
    assert dim.dimension(g, 2) == 1
    assert dim.dimension(g, 3) == 4
    assert dim.dimension(g, 4) == 7


def test_normalizer_dimensions():
    gt = dim.build_gamma_tilde_dataset()
    assert dim.dimension(gt, 2) == 1
    # the class data forces 2 in weight 3; the value is pinned as a regression
    # guard and discussed in the verification report
    assert dim.dimension(gt, 3) == 2


def test_dimensions_are_galois_invariant():
    g = dim.build_gamma_dataset()
    gt = dim.build_gamma_tilde_dataset()
    for s in (1, 2, 4):
        assert dim.dimension(g.conjugated(s), 3) == 4
        assert dim.dimension(gt.conjugated(s), 2) == 1


def test_identity_contribution_matches_euler_number():
    # with only the identity class the formula reduces to e/3 * C(3k-1, 2)
    g = dim.build_gamma_dataset()
    identity = [c for c in g.classes if c.r == 2]
    assert len(identity) == 1
    assert identity[0].virtual_euler == Fraction(3, 7)
    gt = dim.build_gamma_tilde_dataset()
    identity_t = [c for c in gt.classes if c.r == 2]
    assert identity_t[0].virtual_euler == Fraction(1, 7)


def test_elliptic_class_counts():
    g = dim.build_gamma_dataset()
    assert len(g.classes) == 19  # identity + 18 order-7 classes
    gt = dim.build_gamma_tilde_dataset()
    assert len(gt.classes) == 13  # identity + 6 order-7 + 6 order-3 classes
    assert sum(1 for c in gt.classes if c.m == 3) == 6
    assert sum(1 for c in gt.classes if c.m == 7) == 6


DATA = Path(__file__).resolve().parent.parent / "src" / "ballquot" / "data"


@pytest.mark.parametrize("build, table", [
    (dim.build_gamma_dataset, "classes_gamma.json"),
    (dim.build_gamma_tilde_dataset, "classes_gamma_tilde.json"),
])
def test_the_classes_built_from_the_points_are_the_reference_table(build, table):
    # the hand-typed table, each root of unity [21, e] read as its exponent e
    raw = json.loads((DATA / table).read_text())
    assert {raw["cyclotomic_modulus"]} | {mod for c in raw["classes"]
                                          for mod, _ in [c["j"], *c["normal_eigenvalues"]]} == {21}
    want = Counter((c["r"], Fraction(c["virtual_euler"]), c["j"][1], c["m"],
                    tuple(e for _, e in c["normal_eigenvalues"])) for c in raw["classes"])
    ds = build()
    assert (ds.label, ds.cyclotomic_modulus) == (raw["label"], 21)
    assert Counter(map(tuple, ds.classes)) == want


def test_R_coefficient_for_the_identity():
    # r = 2 gives the full polynomial count C(3k-1, 2)
    for k, expect in ((2, 10), (3, 28), (4, 55)):
        val = dim.R_coefficient(2, k, 21, ())
        assert val.as_rational() == expect


def test_R_coefficient_rejects_eigenvalue_one():
    for eigenvalues in ((0, 3), (6, 0)):
        with pytest.raises(dim.EigenvalueOne):
            dim.R_coefficient(0, 2, 7, eigenvalues)


def test_dimension_rejects_non_integral_data():
    g = dim.build_gamma_dataset()
    broken = dim.ClassDataset(g.label, g.cyclotomic_modulus, g.classes[:5])
    with pytest.raises(dim.NotAnInteger):
        dim.dimension(broken, 3)


@pytest.mark.parametrize("build, euler", [(dim.build_gamma_dataset, Fraction(3, 7)),
                                          (dim.build_gamma_tilde_dataset, Fraction(1, 7))])
def test_class_sum_has_period_21_beyond_the_identity(build, euler):
    # j^k and R(0, k) repeat with period 21, so only the identity class moves
    ds = build()
    for k in range(2, 41):
        step = math.comb(3 * k + 62, 2) - math.comb(3 * k - 1, 2)
        assert dim.dimension(ds, k + 21) - dim.dimension(ds, k) == euler / 3 * step


def test_large_weights_match_the_weight_by_weight_products():
    # values of the former class sum, which built j^k from k products
    assert dim.dimension(dim.build_gamma_dataset(), 100000) == 6428507143
    assert dim.dimension(dim.build_gamma_tilde_dataset(), 100000) == 2142835715


def test_cli_dims_at_a_large_weight(capsys):
    assert main(["dims", "--group", "gamma", "--weight", "100000"]) == 0
    assert capsys.readouterr().out.strip() == "6428507143"


def test_class_sum_takes_a_bounded_number_of_products(monkeypatch):
    g = dim.build_gamma_dataset()
    limit, calls, mul = 4 * len(g.classes), [0], CycElt.__mul__

    def counted(self, other):
        calls[0] += 1
        if calls[0] > limit:
            raise AssertionError(f"more than {limit} field multiplications")
        return mul(self, other)

    monkeypatch.setattr(CycElt, "__mul__", counted)
    assert dim.dimension(g, 10**6) >= 0


@pytest.mark.parametrize("n", [7, 21])
def test_isolated_coefficient_inverts_both_factors(n):
    one = CycElt.one(n)
    for a in range(1, n):
        for b in range(1, n):
            factors = (one - CycElt.zeta(n, a)) * (one - CycElt.zeta(n, b))
            assert dim._isolated_coefficient(n, a, b) * factors == one


def test_isolated_coefficient_refuses_an_eigenvalue_one():
    # 1 - zeta^0 = 0 has no inverse; the closed form would otherwise give 0
    for eigenvalues in ((0, 3), (6, 21)):
        with pytest.raises(dim.EigenvalueOne):
            dim.R_coefficient(0, 2, 21, eigenvalues)


def test_dimension_takes_no_field_inverse_and_no_galois_map(monkeypatch):
    from ballquot import cyclotomic

    def refuse(*args):
        raise AssertionError("the class sum needs no inverse and no Galois map")

    dim._isolated_coefficient.cache_clear()
    monkeypatch.setattr(CycElt, "inverse", refuse)
    monkeypatch.setattr(cyclotomic, "_galois", refuse)
    expected = {"gamma": [1, 4, 7, 13], "gamma_tilde": [1, 2, 3, 5]}
    for build in (dim.build_gamma_dataset, dim.build_gamma_tilde_dataset):
        ds = build()
        for s in (s for s in range(1, 21) if math.gcd(s, 21) == 1):
            assert [dim.dimension(ds.conjugated(s), k) for k in range(2, 6)] == expected[ds.label]


@pytest.mark.parametrize("build, isolated", [(dim.build_gamma_dataset, 18),
                                             (dim.build_gamma_tilde_dataset, 12)])
def test_the_weight_free_part_is_built_once_per_dataset(monkeypatch, build, isolated):
    # R(0) is read once per isolated class, however many weights are evaluated
    calls, R = [], dim.R_coefficient

    def counted(r, k, n, normal_eigenvalues=()):
        calls.append(r)
        return R(r, k, n, normal_eigenvalues)

    monkeypatch.setattr(dim, "R_coefficient", counted)
    ds = build().conjugated(5)
    values = [dim.dimension(ds, k) for k in range(2, 42)]
    assert calls == [0] * isolated
    assert values[:2] == ([1, 4] if ds.label == "gamma" else [1, 2])


def test_each_dataset_builds_its_form_once_with_more_than_16_alive(monkeypatch):
    # 24 conjugates evaluated round-robin: each reads R(0) once per isolated class
    calls, R = [], dim.R_coefficient

    def counted(r, k, n, normal_eigenvalues=()):
        calls.append(r)
        return R(r, k, n, normal_eigenvalues)

    monkeypatch.setattr(dim, "R_coefficient", counted)
    units = [s for s in range(1, 21) if math.gcd(s, 21) == 1]
    conjugates = [build().conjugated(s) for build in (dim.build_gamma_dataset,
                                                      dim.build_gamma_tilde_dataset)
                  for s in units]
    assert len(conjugates) == 24
    values = [[dim.dimension(ds, k) for ds in conjugates] for k in range(2, 6)]
    assert calls == [0] * (12 * 18 + 12 * 12)
    assert values == [[1] * 24, [4] * 12 + [2] * 12, [7] * 12 + [3] * 12, [13] * 12 + [5] * 12]


def test_conjugation_keeps_the_eigenvalue_check():
    # 21 is not 0, but 21 * 5 is 0 mod 21: the conjugate would have eigenvalue 1.
    # The constructor refuses the unreduced 21, so the dataset is built past its
    # checks, as `conjugated` builds its own; `dimension` then refuses the conjugate
    bad = (dim.FixedPointClass(0, Fraction(1), 3, 7, (21, 9)),)
    with pytest.raises(dim.EigenvalueOne, match="^normal eigenvalue 1 makes R undefined$"):
        dim.ClassDataset("x", 21, bad)
    ds = object.__new__(dim.ClassDataset)
    Frozen.__init__(ds, "x", 21, bad)
    with pytest.raises(dim.EigenvalueOne, match="^normal eigenvalue 1 makes R undefined$"):
        dim.dimension(ds.conjugated(5), 2)
    for build in (dim.build_gamma_dataset, dim.build_gamma_tilde_dataset):
        base = build()
        for s in (s for s in range(1, 21) if math.gcd(s, 21) == 1):
            for c in base.conjugated(s).classes:
                assert type(c) is dim.FixedPointClass and c == dim.FixedPointClass(*c)


ISOLATED = dim.FixedPointClass(0, Fraction(1), 3, 7, (6, 18))


@pytest.mark.parametrize("fields, error, message", [
    ((b"x", 21, ()), TypeError, "^the label must be a str, not bytes$"),
    (("x", 21.0, ()), TypeError, "^the cyclotomic modulus must be an int, not float$"),
    (("x", True, ()), TypeError, "^the cyclotomic modulus must be an int, not bool$"),
    (("x", 0, ()), ValueError, "^the cyclotomic modulus must be at least 1, got 0$"),
    (("x", 21, [ISOLATED]), TypeError, "^the classes must be a tuple of FixedPointClass"),
    (("x", 21, ((0, Fraction(1), 3, 7, (6, 18)),)), TypeError,
     r"^the classes must be a tuple of FixedPointClass, got \(0, "),
    (("x", 21, (ISOLATED._replace(j=21),)), ValueError, "^j = 21 is not an exponent"),
    (("x", 21, (ISOLATED._replace(j=-1),)), ValueError, "^j = -1 is not an exponent"),
    (("x", 21, (ISOLATED._replace(normal_eigenvalues=(21, 9)),)), dim.EigenvalueOne,
     "^normal eigenvalue 1 makes R undefined$"),
    (("x", 21, (ISOLATED._replace(normal_eigenvalues=(6, 25)),)), ValueError,
     r"^eigenvalue exponent 25 is not reduced to 1\.\.20$"),
    (("x", 21, (ISOLATED._replace(normal_eigenvalues=(-6, 18)),)), ValueError,
     "^eigenvalue exponent -6 is not reduced to 1..20$"),
    (("x", 21, (dim.FixedPointClass(0, Fraction(1), 12, 7, (0, 3)),)), dim.EigenvalueOne,
     "^normal eigenvalue 1 makes R undefined$"),
    (("x", 21, (dim.FixedPointClass(r=1, virtual_euler=Fraction(1), j=0, m=1,
                                    normal_eigenvalues=()),)), ValueError,
     "^fixed set dimension must be 0 or 2$"),
], ids=["label", "float-modulus", "bool-modulus", "modulus-0", "list", "plain-tuple",
        "j-21", "j-negative", "eigenvalue-21", "eigenvalue-25", "eigenvalue-negative",
        "eigenvalue-0", "r-1"])
def test_a_class_dataset_checks_its_fields(fields, error, message):
    with pytest.raises(error, match=message):
        dim.ClassDataset(*fields)


def test_a_checked_dataset_hashes_and_evaluates():
    g = dim.build_gamma_dataset()
    same = dim.ClassDataset(g.label, g.cyclotomic_modulus, g.classes)
    assert same == g and hash(same) == hash(g) and dim.dimension(same, 3) == 4
    empty = dim.ClassDataset("x", 1, ())
    assert hash(empty) == hash(dim.ClassDataset("x", 1, ()))


def test_conjugation_builds_its_datasets_without_the_field_checks(monkeypatch):
    g = dim.build_gamma_dataset()

    def refuse(*args):
        raise AssertionError("a conjugate ran the constructor's checks")

    monkeypatch.setattr(dim.ClassDataset, "__init__", refuse)
    assert [dim.dimension(g.conjugated(s), 3) for s in (1, 2, 5, 20)] == [4] * 4


@pytest.mark.parametrize("value", [True, 3.0, Fraction(3), "3"],
                         ids=["bool", "float", "Fraction", "str"])
def test_a_non_int_weight_or_galois_exponent_is_a_type_error(value):
    g = dim.build_gamma_dataset()
    with pytest.raises(TypeError, match=f"must be an int, not {type(value).__name__}$"):
        dim.dimension(g, value)
    with pytest.raises(TypeError, match=f"must be an int, not {type(value).__name__}$"):
        g.conjugated(value)


def test_the_weight_free_part_is_keyed_by_the_dataset_not_its_label():
    # e/3 of the identity class grows by 1, so each dimension grows by C(3k-1, 2)
    g = dim.build_gamma_dataset()
    identity = g.classes[0]
    assert identity.r == 2
    heavier = dim.ClassDataset(g.label, g.cyclotomic_modulus,
                               (identity._replace(virtual_euler=identity.virtual_euler + 3),)
                               + g.classes[1:])
    assert [dim.dimension(ds, k) for ds in (g, heavier, g) for k in (2, 3)] == [1, 4, 11, 32, 1, 4]


def test_a_class_sum_off_the_rationals_says_whether_it_is_real():
    g = dim.build_gamma_dataset()
    with pytest.raises(dim.NotAnInteger, match="is not real$"):
        dim.dimension(dim.ClassDataset(g.label, 21, g.classes[:5]), 3)
    real_pair = (dim.FixedPointClass(0, Fraction(1), 3, 7, (6, 18)),
                 dim.FixedPointClass(0, Fraction(1), 18, 7, (15, 3)))
    with pytest.raises(dim.NotAnInteger, match="is not rational$"):
        dim.dimension(dim.ClassDataset(g.label, 21, real_pair), 3)
