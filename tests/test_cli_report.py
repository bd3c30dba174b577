import json

import pytest

from ballquot import report as rpt
from ballquot.cli import main


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


def test_report_json_is_deterministic(default_report):
    assert default_report.to_json() == rpt.run_all().to_json()
    meta = default_report.metadata
    assert set(meta) == {"config_hash", "version", "entry_count"}
    # the hashed body carries no timestamp; the timestamp sits outside it
    doc = json.loads(default_report.to_json(with_timestamp=True))
    assert "generated_at" in doc and "generated_at" not in doc["report"]


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
    with pytest.raises(rpt.ConfigError):
        rpt.run_all(str(p))


@pytest.mark.parametrize("congruence", [None, "7", 7.0, True, [7]])
def test_missing_or_non_integer_congruence_index_is_a_config_error(tmp_path, congruence):
    cfg = rpt.load_config()
    if congruence is None:
        del cfg["indices"]["congruence"]
    else:
        cfg["indices"]["congruence"] = congruence
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    with pytest.raises(rpt.ConfigError):
        rpt.run_all(str(p))


def test_cli_volume(capsys):
    assert main(["volume"]) == 0
    assert capsys.readouterr().out.strip() == "3/7"


def test_cli_resolve(capsys):
    assert main(["resolve", "7", "3"]) == 0
    assert capsys.readouterr().out.strip() == "(-3)(-2)(-2)"


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
