import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from ballquot import classifier as cl
from ballquot import config
from ballquot import cyclic_algebra as ca
from ballquot import dimension as dim
from ballquot import hermitian
from ballquot import lfunctions as lf
from ballquot import order_arithmetic as oa
from ballquot import report as rpt
from ballquot import singularities as sg
from ballquot.cli import main
from ballquot.symreal import SymbolicReal


@pytest.fixture(scope="module")
def default_report():
    return rpt.run_all()


def test_run_all_default_config(default_report):
    r = default_report
    assert len(r.entries) >= 20
    assert r.exit_code() == 0
    ids = [e["id"] for e in r.entries]
    assert len(ids) == len(set(ids))
    for e in r.entries:
        assert e["status"] in ("match", "mismatch", "derived-only", "flagged")
        assert e["paper_anchor"]


def test_report_flags_known_discrepancies(default_report):
    by_id = {e["id"]: e for e in default_report.entries}
    assert by_id["l_value_printed_constant"]["status"] == "flagged"
    assert by_id["order_discriminant"]["status"] == "flagged"
    assert by_id["iota_b_invariance"]["status"] == "flagged"
    assert by_id["dim_tilde_k3"]["status"] == "flagged"
    assert by_id["covolume"]["status"] == "match"


# sha256 of the stdout of `ballquot report --format json`.  A change that adds,
# removes or rewords an entry, or changes the default config, which `config_hash`
# hashes, updates it and records the move in CHANGES.md.
REPORT_SHA256 = "714a268fda4fdbc398f55d8d47acc5105879be1286cdc68f9ea2f9c1b6bcf9b6"


def test_the_default_report_is_byte_identical(capsys):
    assert main(["report", "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == REPORT_SHA256


# sha256 of the stdout of `ballquot report --format md`, moved under the same rule
REPORT_MD_SHA256 = "f37c5030de075f205ae059b9bf4db1b04d873be0f8a2d0cf8ab10d0abdcc8796"


def test_the_markdown_report_is_byte_identical(capsys):
    assert main(["report", "--format", "md"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == REPORT_MD_SHA256


@pytest.mark.parametrize("expected, computed", [
    (1, True), (Fraction(1, 2), 0.5), ((Fraction(3, 7),), (3 / 7,)), (0.5, 0.5),
    ({2: 6}, {2: True}), (frozenset({1}), frozenset({True})),
])
def test_values_of_another_type_or_a_float_never_match(expected, computed):
    r = rpt.VerificationReport()
    r.add("x", "anchor", expected, computed)
    assert [e["status"] for e in r.mismatches()] == ["mismatch"]
    assert r.exit_code() == 1


def test_a_float_has_no_report_text():
    with pytest.raises(TypeError):
        rpt.render(0.5)
    with pytest.raises(TypeError):
        rpt.render((Fraction(1, 2), 0.5))


def test_every_check_passes_exact_values(monkeypatch):
    # the one text that reaches `add` is the series the closed form is checked against
    real, texts = rpt.VerificationReport.add, []

    def add(self, entry_id, anchor, expected, computed, *args, **kwargs):
        values = [expected, computed] + [v for v in args + tuple(kwargs.values())
                                         if not callable(v)]
        assert not any(isinstance(v, float) for v in values), entry_id
        texts.extend((entry_id, v) for v in (expected, computed) if isinstance(v, str))
        return real(self, entry_id, anchor, expected, computed, *args, **kwargs)

    monkeypatch.setattr(rpt.VerificationReport, "add", add)
    r = rpt.run_all()
    assert len(r.entries) == 39
    assert [entry_id for entry_id, _ in texts] == ["l_value_closed_form"]
    assert texts[0][1].startswith("series ")
    assert not any(isinstance(v, str) for v in rpt.DEVIATIONS.values())


def test_report_json_is_deterministic(default_report):
    assert default_report.to_json() == rpt.run_all().to_json()
    meta = default_report.metadata
    assert set(meta) == {"config_hash", "version", "entry_count"}
    # the hashed body carries no timestamp; the timestamp sits outside it
    doc = json.loads(default_report.to_json(with_timestamp=True))
    assert "generated_at" in doc and "generated_at" not in doc["report"]


def test_report_values_are_pinned(default_report):
    # computed value and status of each entry of `ballquot report --format json`;
    # notes and config_hash are not pinned, and new ids may be added
    pinned = json.loads((Path(__file__).parent / "data" / "report_pinned.json").read_text())
    entries = {e["id"]: e for e in json.loads(default_report.to_json())["report"]["entries"]}
    assert len(pinned) == 39
    for entry_id, want in pinned.items():
        got = entries[entry_id]
        assert {"computed": got["computed"], "status": got["status"]} == want, entry_id


def test_wrong_local_factor_causes_mismatch_exit(tmp_path):
    cfg = rpt.load_config()
    cfg["local_factors"] = {"2": "1"}  # drops the Euler factor to 1
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    r = rpt.run_all(str(p))
    assert r.exit_code() == 1
    assert {e["id"] for e in r.mismatches()} == {"covolume", "euler_number_cover"}


def test_missing_local_factors_is_a_config_error(tmp_path):
    cfg = rpt.load_config()
    del cfg["local_factors"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    with pytest.raises(config.ConfigError):
        rpt.run_all(str(p))


def _write_config(tmp_path, cfg) -> str:
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return str(p)


@pytest.mark.parametrize("edit", [
    lambda cfg: {**cfg, "datasets": {"gamma": "nope.json"}},
    lambda cfg: {**cfg, "algebra": {"alpha": "garbage"}},
    lambda cfg: {**cfg, "indices": {"congruence": 7}},
    lambda cfg: {},
    lambda cfg: {**cfg, "indices": [7]},
    lambda cfg: [cfg],
])
def test_unknown_missing_or_malformed_config_section_is_a_config_error(tmp_path, capsys, edit):
    path = _write_config(tmp_path, edit(rpt.load_config()))
    with pytest.raises(config.ConfigError):
        rpt.load_config(path)
    assert main(["volume", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "volume"])
@pytest.mark.parametrize("local_factors", [{}, {"2": 3.5}, {"2": True}, {"2": "three"},
                                           {"2": None}, {"2": "1/0"}, "3", [3]])
def test_bad_local_factors_exit_2_in_every_command(tmp_path, capsys, command, local_factors):
    cfg = rpt.load_config()
    cfg["local_factors"] = local_factors
    assert main([command, "--config", _write_config(tmp_path, cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_volume(capsys):
    assert main(["volume"]) == 0
    assert capsys.readouterr().out.strip() == "3/7"


def test_cli_volume_reads_integer_and_rational_string_local_factors(tmp_path, capsys):
    cfg = rpt.load_config()
    cfg["local_factors"] = {"2": 3, "7": "1/1"}
    assert main(["volume", "--config", _write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out.strip() == "3/7"


def test_cli_resolve(capsys):
    assert main(["resolve", "7", "3"]) == 0
    assert capsys.readouterr().out.strip() == "(-3)(-2)(-2)"


def test_cli_resolve_refuses_a_type_that_is_not_cyclic(capsys):
    assert main(["resolve", "7", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "(7,7) is not a valid cyclic type" in err


def test_cli_dims(capsys):
    assert main(["dims", "--group", "gamma", "--weight", "3"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["dims", "--group", "gamma_tilde", "--weight", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_lvalue(capsys):
    assert main(["lvalue"]) == 0
    assert capsys.readouterr().out.strip() == "32/2401 * pi^3 * 7^(1/2)"


def test_cli_heights_and_classify(tmp_path, capsys):
    h = tmp_path / "orb.json"
    h.write_text(json.dumps({"euler": "3", "signature": "1",
                             "points": [[7, 3], [7, 3], [7, 3]]}))
    assert main(["heights", str(h)]) == 0
    out = capsys.readouterr().out
    assert "3/7" in out and "1/7" in out and "(12, -8, 9)" in out

    c = tmp_path / "surf.json"
    c.write_text(json.dumps({"c2": 3, "q": 0, "plurigenera": {"2": 10, "3": 28}}))
    assert main(["classify", str(c)]) == 0
    out = capsys.readouterr().out
    assert "kodaira_dimension     2" in out
    assert "fake_projective_plane True" in out


def test_cli_report_exit_codes(tmp_path, capsys):
    assert main(["report"]) == 0
    capsys.readouterr()
    assert main(["report", "--format", "md"]) == 0
    assert "| id | status |" in capsys.readouterr().out

    cfg = rpt.load_config()
    cfg["local_factors"] = {"2": "1"}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["report", "--config", str(p)]) == 1
    capsys.readouterr()

    del cfg["local_factors"]
    p.write_text(json.dumps(cfg))
    assert main(["report", "--config", str(p)]) == 2
    assert main(["heights", str(tmp_path / "missing.json")]) == 2


def test_cli_bad_usage_exit_code(capsys):
    assert main(["nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["report", "volume"])
@pytest.mark.parametrize("key", ["banana", "4", "1", "", "0", "-2", "02", " 2", "2.0",
                                 "4294967311"])
def test_local_factor_key_that_is_not_a_decimal_prime_exits_2(tmp_path, capsys, command, key):
    cfg = rpt.load_config()
    cfg["local_factors"] = {"2": "3", key: "1"}
    assert main([command, "--config", _write_config(tmp_path, cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_local_factors_at_other_primes_are_read(tmp_path, capsys):
    cfg = rpt.load_config()
    cfg["local_factors"] = {"2": "3", "3": 1, "7": "1", "4294967291": "1"}
    assert main(["volume", "--config", _write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out.strip() == "3/7"


@pytest.mark.parametrize("value, exact", [(3, Fraction(3)), (-2, Fraction(-2)),
                                          ("3", Fraction(3)), ("-1/7", Fraction(-1, 7)),
                                          ("6/4", Fraction(3, 2))])
def test_exact_rational_reads_integers_and_fraction_strings(value, exact):
    assert config.exact_rational(value, "x") == exact


@pytest.mark.parametrize("value", [0.1, 3.0, True, False, None, [3], {"3": 1}, "1.5",
                                   "1e3", "1/0", "", " 3", "three", "1" * 5000])
def test_exact_rational_refuses_everything_else(value):
    with pytest.raises(config.ConfigError):
        config.exact_rational(value, "x")


@pytest.mark.parametrize("value", [7.0, True, "7", None])
def test_exact_integer_refuses_everything_but_json_integers(value):
    assert config.exact_integer(7, "x") == 7
    with pytest.raises(config.ConfigError):
        config.exact_integer(value, "x")


HEIGHTS = {"euler": "3", "signature": 1, "points": [[7, 3], [7, 3], [7, 3]]}


@pytest.mark.parametrize("edit", [
    {"euler": 0.1}, {"euler": True}, {"signature": 1.0}, {"signature": "1.5"},
    {"points": [[7.0, 3]]}, {"points": [[7, True]]}, {"points": [[7, "3"]]},
    {"points": [7, 3]}, {"points": [[7, 3, 1]]}, {"points": "[[7, 3]]"},
])
def test_heights_refuses_inexact_input(tmp_path, capsys, edit):
    h = tmp_path / "orb.json"
    h.write_text(json.dumps({**HEIGHTS, **edit}))
    assert main(["heights", str(h)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err


CLASSIFY = {"c2": 3, "q": 0, "plurigenera": {"2": 10, "3": 28}}


@pytest.mark.parametrize("edit", [
    {"plurigenera": {"2": 10.9, "3": 28}}, {"plurigenera": {"2": True, "3": 28}},
    {"plurigenera": {"2": "10", "3": 28}}, {"plurigenera": {"two": 10, "3": 28}},
    {"plurigenera": [10, 28]}, {"c2": 3.0}, {"c2": True}, {"q": 0.0},
    {"signature": 0.5}, {"minimal": "no"},
    {"c2": 12, "signature": -8, "plurigenera": {"2": -3, "3": 1}}, {"q": -1},
    {"c2": "7/2"}, {"q": "1/2"}, {"signature": "1/2"},
    {"minimal": False}, {"minimal": True},
])
def test_classify_refuses_inexact_input(tmp_path, capsys, edit):
    c = tmp_path / "surf.json"
    c.write_text(json.dumps({**CLASSIFY, **edit}))
    assert main(["classify", str(c)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err


@pytest.mark.parametrize("command", ["heights", "classify"])
def test_heights_and_classify_need_a_json_object(tmp_path, capsys, command):
    f = tmp_path / "data.json"
    f.write_text(json.dumps([3, 1]))
    assert main([command, str(f)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["heights", "classify"])
@pytest.mark.parametrize("content", [None, b"{", b"[1]", b"\xff{}"])
def test_an_unreadable_or_malformed_input_file_is_a_config_error(tmp_path, capsys, command,
                                                                 content):
    f = tmp_path / "data.json"
    if content is not None:
        f.write_bytes(content)
    assert main([command, str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")


@pytest.mark.parametrize("argv", [["report", "--config"], ["heights"], ["classify"]])
def test_a_file_nested_too_deeply_is_a_config_error(tmp_path, capsys, argv):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100000 + "]" * 100000)
    assert main(argv + [str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err and "nested" in captured.err


def test_classify_reads_a_resolution_with_rational_strings(tmp_path, capsys):
    c = tmp_path / "surf.json"
    c.write_text(json.dumps({"c2": "12", "signature": "-8", "q": 0, "minimal": True,
                             "plurigenera": {"2": 1, "3": 1}}))
    assert main(["classify", str(c)]) == 0
    assert "kodaira_dimension     1" in capsys.readouterr().out


def test_deviations_are_exactly_the_flagged_entries(default_report):
    flagged = {e["id"] for e in default_report.entries if e["status"] == "flagged"}
    assert set(rpt.DEVIATIONS) == flagged


def _off(owner, name, fake):
    """A patch that replaces owner.name by fake(real), where real is the original."""
    def patch(monkeypatch):
        monkeypatch.setattr(owner, name, fake(getattr(owner, name)))
    return patch


def _dimension_plus_one(group, weight):
    def patch(monkeypatch):
        real, ds = dim.dimension, getattr(dim, f"build_{group}_dataset")()
        monkeypatch.setattr(dim, "dimension", lambda d, k: real(d, k) + 1
                            if d == ds and k == weight else real(d, k))
    return patch


def _form_of_twice_b(monkeypatch):
    monkeypatch.setattr(hermitian, "H_b", lambda: hermitian.HermMatrix.from_alg_elt(
        ca.b_element().scale(2)))


_discriminant_with_seven_squared = _off(
    oa, "discriminant", lambda real: lambda *a: {**real(*a), "factorization": {2: 6, 7: 2}})
_invariance_failing_at_three_and_five = _off(
    oa, "iota_b_invariance_report", lambda real: lambda *a: {**real(*a),
                                                             "denominator_primes": [3, 5]})
_l_value_doubled = _off(
    lf, "dirichlet_L_value", lambda real: lambda n, chi: real(n, chi) * SymbolicReal.rational(2))
_congruence_index_eight = _off(oa, "congruence_index", lambda real: lambda q, d: 8)
_chain_of_n_1 = _off(sg, "hj_expand", lambda real: lambda p: real(sg.CyclicSingularity(p.n, 1)))
_dedekind_sum_plus_one = _off(sg, "dedekind_sum", lambda real: lambda q, n: real(q, n) + 1)
_defect_plus_one = _off(sg, "signature_defect", lambda real: lambda p: real(p) + 1)
_euler_of_resolution_plus_one = _off(
    sg, "resolve_invariants", lambda real: lambda x: (real(x)[0] + 1, *real(x)[1:]))
_kodaira_zero = _off(cl, "kodaira_classify", lambda real: lambda s: (0, real(s)[1]))
_fibers_off_euler = _off(cl, "fibration_euler_check", lambda real: lambda *a: False)
_fibers_off_components = _off(cl, "fiber_component_accounting", lambda real: lambda *a: False)

# every entry of the default report: a patch of the one library call that yields
# its computed value, and the text that value then has.  Each is a mismatch, a
# deviation's too: it is off its expected value and off its documented deviation.
OFF_DEVIATION = {
    "bernoulli_b3_chi7": (_off(lf, "generalized_bernoulli",
                               lambda real: lambda n, chi: 2 * real(n, chi)), "96/7"),
    "l_value_closed_form": (_l_value_doubled, "64/2401 * pi^3 * 7^(1/2)"),
    "l_value_printed_constant": (_l_value_doubled, "64/2401 * pi^3 * 7^(1/2)"),
    "zeta_2": (_off(lf, "riemann_zeta",
                    lambda real: lambda n: real(n) * SymbolicReal.rational(2)), "1/3 * pi^2"),
    "covolume": (_off(lf, "covolume", lambda real: lambda *a: 2 * real(*a)), "6/7"),
    "euler_number_cover": (_off(lf, "euler_number_of_cover",
                                lambda real: lambda vol, idx: real(vol, idx) + 1), "4"),
    "division_algebra": (_off(ca, "is_division_algebra",
                              lambda real: lambda: (False, real()[1])), False),
    "hb_signature": (_off(hermitian.HermMatrix, "signature",
                          lambda real: lambda self: hermitian.Signature(2, 1, 0)),
                     "2 positive, 1 negative"),
    "hb_determinant": (_form_of_twice_b, "24"),
    "hc_ball_vectors": (_off(hermitian.HermMatrix, "in_ball",
                             lambda real: lambda self, vec: True), 3),
    "order_discriminant": (_discriminant_with_seven_squared, "2^6 * 7^2"),
    "iota_b_invariance": (_invariance_failing_at_three_and_five,
                          {"denominator_primes": [3, 5], "b_in_order": True,
                           "adjugate_of_b_in_order": True}),
    "congruence_index": (_congruence_index_eight, 8),
    "torsion_orders": (_off(oa, "torsion_orders", lambda real: lambda: real()._replace(
        allowed_orders=frozenset({1, 2, 7}))), "{1, 2, 7}"),
    "torsion_free": (_off(oa, "torsion_free_check", lambda real: lambda *a: False), False),
    "hj_7_3": (_chain_of_n_1, "(-7)"),
    "hj_3_2": (_chain_of_n_1, "(-3)"),
    "rotation_type": (_off(sg, "singularity_type_from_rotation",
                           lambda real: lambda n, a, b: real(n, a, b + 1)), "(7, 4)"),
    "dedekind_s_3_7": (_dedekind_sum_plus_one, "13/14"),
    "dedekind_s_2_3": (_dedekind_sum_plus_one, "17/18"),
    "defect_7_3": (_defect_plus_one, "9/7"),
    "defect_3_2": (_defect_plus_one, "11/9"),
    "heights_quotient": (_off(sg, "euler_height", lambda real: lambda x: 2 * real(x)),
                         "(6/7, 1/7)"),
    "heights_normalizer_quotient": (_off(sg, "signature_height",
                                         lambda real: lambda x: 2 * real(x)), "(1/7, 2/21)"),
    "cover_multiplicativity": (_off(sg, "check_cover_multiplicativity",
                                    lambda real: lambda *a: False), False),
    "resolution_quotient": (_euler_of_resolution_plus_one, "(13, -8, 9)"),
    "resolution_normalizer": (_euler_of_resolution_plus_one, "(13, -8, 9)"),
    "branch_solver": (_off(sg, "solve_branch_data", lambda real: lambda *a: []),
                      "0 solution(s): "),
    "dim_gamma_k2": (_dimension_plus_one("gamma", 2), 2),
    "dim_gamma_k3": (_dimension_plus_one("gamma", 3), 5),
    "dim_tilde_k2": (_dimension_plus_one("gamma_tilde", 2), 2),
    "dim_tilde_k3": (_dimension_plus_one("gamma_tilde", 3), 3),
    "fake_plane": (_off(cl, "is_fake_projective_plane", lambda real: lambda *a: False), False),
    "kodaira_resolution_quotient": (_kodaira_zero, 0),
    "kodaira_resolution_normalizer": (_kodaira_zero, 0),
    "fibration_euler_gamma": (_fibers_off_euler, False),
    "fibration_euler_gamma_tilde": (_fibers_off_euler, False),
    "fibration_components_gamma": (_fibers_off_components, False),
    "fibration_components_gamma_tilde": (_fibers_off_components, False),
}


def _closed_form_entry(monkeypatch, shift):
    # the series the report checks the closed form against, moved by `shift`,
    # with a zero tail: the radius is the report's own exact bound
    real = lf.l_series_oracle
    monkeypatch.setattr(lf, "l_series_oracle",
                        lambda *a: (real(*a)[0] + shift, 0.0))
    r = rpt.run_all()
    return next(e for e in r.entries if e["id"] == "l_value_closed_form"), r.exit_code()


def test_the_closed_form_radius_does_not_read_the_oracle_tail(monkeypatch):
    entry, code = _closed_form_entry(monkeypatch, 0.0)
    assert (entry["status"], code) == ("match", 0)


def test_a_series_off_by_twice_the_radius_is_a_mismatch(monkeypatch):
    radius = 1 / (2 * 20000 ** 2) + 2.0 ** -51
    entry, code = _closed_form_entry(monkeypatch, 2 * radius)
    assert (entry["status"], code) == ("mismatch", 1)


@pytest.mark.parametrize("entry_id", sorted(OFF_DEVIATION))
def test_a_value_off_its_documented_deviation_is_a_mismatch(monkeypatch, entry_id):
    patch, computed = OFF_DEVIATION[entry_id]
    patch(monkeypatch)
    r = rpt.run_all()
    entry = next(e for e in r.entries if e["id"] == entry_id)
    assert (entry["computed"], entry["status"]) == (computed, "mismatch")
    assert r.exit_code() == 1


def test_every_entry_has_a_row_off_its_value(default_report):
    assert sorted(OFF_DEVIATION) == sorted(e["id"] for e in default_report.entries)


def test_a_moved_euler_height_is_reported_not_raised(monkeypatch, capsys):
    """Twice the Euler height makes three of the dimension formula's class
    sums non-integral: each such dim_* entry shows that error as its computed
    value, and the report still has every entry."""
    OFF_DEVIATION["heights_quotient"][0](monkeypatch)
    r = rpt.run_all()
    assert {e["id"] for e in r.mismatches()} == {
        "heights_quotient", "heights_normalizer_quotient", "cover_multiplicativity",
        "branch_solver", "dim_gamma_k2", "dim_gamma_k3", "dim_tilde_k2", "dim_tilde_k3"}
    assert {e["id"]: e["computed"] for e in r.entries if e["id"].startswith("dim_")} == {
        "dim_gamma_k2": "class sum 17/7 is not a nonnegative integer", "dim_gamma_k3": 8,
        "dim_tilde_k2": "class sum 31/21 is not a nonnegative integer",
        "dim_tilde_k3": "class sum 10/3 is not a nonnegative integer"}
    assert main(["report"]) == 1
    assert len(json.loads(capsys.readouterr().out)["report"]["entries"]) == 39


def test_the_cover_degree_is_the_congruence_index(monkeypatch):
    _congruence_index_eight(monkeypatch)
    r = rpt.run_all()
    assert {e["id"] for e in r.mismatches()} == {"congruence_index", "euler_number_cover"}


def test_the_fiber_components_are_read_off_the_chains(monkeypatch):
    """Chains of (n,1) points have no (-2)-curve, so no fiber component of
    either fibration is an exceptional curve any more."""
    _chain_of_n_1(monkeypatch)
    r = rpt.run_all()
    assert {e["id"] for e in r.mismatches()} == {
        "hj_7_3", "hj_3_2", "fibration_components_gamma", "fibration_components_gamma_tilde"}


@pytest.mark.parametrize("off, mismatched", [
    ("both", {"gamma", "gamma_tilde"}),
    ("gamma", {"gamma"}),
    ("gamma_tilde", {"gamma_tilde"}),
])
def test_the_fibers_sum_to_the_computed_euler_number(monkeypatch, off, mismatched):
    """Each fibration is checked against e(Y) of its own resolved quotient:
    the order-7 quotient (three (7,3) points) for gamma, the normalizer
    quotient for gamma_tilde.  An e(Y) of 11 there is a mismatch."""
    real = sg.resolve_invariants

    def resolve_invariants(x):
        e, s, blowups = real(x)
        label = "gamma" if len(x.points) == 3 else "gamma_tilde"
        return (Fraction(11) if off in ("both", label) else e), s, blowups

    monkeypatch.setattr(sg, "resolve_invariants", resolve_invariants)
    r = rpt.run_all()
    status = {e["id"]: e["status"] for e in r.entries}
    assert {label for label in ("gamma", "gamma_tilde")
            if status[f"fibration_euler_{label}"] == "mismatch"} == mismatched
    assert r.exit_code() == 1


@pytest.mark.parametrize("off, mismatched", [
    ("gamma", {"quotient"}),
    ("gamma_tilde", {"normalizer"}),
])
def test_each_kodaira_entry_classifies_its_own_resolution(monkeypatch, off, mismatched):
    """An e(Y) of 11 gives chi = 3/4, which leaves kodaira dimensions 0 and 1
    standing: the entry of that resolution alone is a mismatch that says so."""
    real = sg.resolve_invariants

    def resolve_invariants(x):
        e, s, blowups = real(x)
        label = "gamma" if len(x.points) == 3 else "gamma_tilde"
        return (Fraction(11) if off == label else e), s, blowups

    monkeypatch.setattr(sg, "resolve_invariants", resolve_invariants)
    entries = {e["id"]: e for e in rpt.run_all().entries}
    kodaira = {key: entries[f"kodaira_resolution_{key}"] for key in ("quotient", "normalizer")}
    assert {key for key, e in kodaira.items() if e["status"] == "mismatch"} == mismatched
    for key in mismatched:
        assert kodaira[key]["computed"].startswith("surviving kodaira dimensions [0, 1]")


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the ceiling should refuse this before any work")


@pytest.mark.parametrize("argv, patched", [
    (["lvalue", "--weight", "403"], "bernoulli_number"),
    (["lvalue", "--numeric", "--terms", "10000001"], "l_series_oracle"),
])
def test_lvalue_refuses_work_above_its_ceilings(monkeypatch, capsys, argv, patched):
    monkeypatch.setattr(lf, patched, _refuse_to_run)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err


@pytest.mark.parametrize("n", [100000007, 1000002])
def test_resolve_refuses_a_chain_above_its_ceiling(monkeypatch, capsys, n):
    monkeypatch.setattr(sg, "hj_expand", _refuse_to_run)
    assert main(["resolve", str(n), str(n - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err


def test_resolve_prints_a_chain_at_its_ceiling(capsys):
    assert main(["resolve", "1000001", "1000000"]) == 0
    assert capsys.readouterr().out.strip() == "(-2)" * 1000000
