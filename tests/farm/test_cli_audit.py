"""The ``audit`` CLI front-ends: ``explain-all --audit`` and ``audit``."""

import io
import json

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_explain_all_audit_confirms_and_reports(tmp_path):
    report_path = str(tmp_path / "report.json")
    code, text = run_cli(
        "explain-all", "scenario1", "--audit",
        "--cache-dir", str(tmp_path / "cache"),
        "--json", report_path,
    )
    assert code == 0
    assert "audit: 2 audited, 2 confirmed, 0 refuted, 0 repaired" in text
    with open(report_path) as handle:
        report = json.load(handle)
    assert report["audit"]["verdicts"] == {"confirmed": 2}
    assert all(
        row["audit"]["verdict"] == "confirmed" for row in report["jobs"]
    )


def test_explain_all_without_audit_keeps_the_section_null(tmp_path):
    report_path = str(tmp_path / "report.json")
    code, text = run_cli(
        "explain-all", "scenario1",
        "--cache-dir", str(tmp_path / "cache"),
        "--json", report_path,
    )
    assert code == 0
    assert "audit:" not in text
    with open(report_path) as handle:
        report = json.load(handle)
    assert report["audit"] is None
    assert all(row["audit"] is None for row in report["jobs"])


def test_audit_subcommand_adjudicates_every_job(tmp_path):
    code, text = run_cli("audit", "scenario1", "--seed", "3")
    assert code == 0
    assert "R1/router/Req1: audit: CONFIRMED" in text
    assert "R2/router/Req1: audit: CONFIRMED" in text
    assert "seed 3" in text


def test_audit_subcommand_json(tmp_path):
    out_path = str(tmp_path / "audit.json")
    code, _ = run_cli("audit", "scenario1", "--json", out_path)
    assert code == 0
    with open(out_path) as handle:
        payload = json.load(handle)
    assert {entry["job"] for entry in payload} == {
        "R1/router/Req1", "R2/router/Req1",
    }
    for entry in payload:
        assert entry["audit"]["schema"] == "repro-audit/1"
        assert entry["audit"]["verdict"] == "confirmed"


def test_audit_subcommand_matches_the_farm_audit_stage(tmp_path):
    audit_path = str(tmp_path / "audit.json")
    report_path = str(tmp_path / "report.json")
    code, _ = run_cli("audit", "scenario2", "--json", audit_path)
    assert code == 0
    code, _ = run_cli(
        "explain-all", "scenario2", "--audit", "--no-cache",
        "--json", report_path,
    )
    assert code == 0
    with open(audit_path) as handle:
        verdicts = json.load(handle)
    with open(report_path) as handle:
        rows = json.load(handle)["jobs"]
    assert verdicts == [
        {"job": row["job"], "audit": row["audit"]} for row in rows
    ]
