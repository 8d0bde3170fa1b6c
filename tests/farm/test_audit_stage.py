"""The audit stage inside the farm: cached, observational, reported."""

import json
from dataclasses import replace

from repro.api import ExplainRequest
from repro.bgp import DENY, PERMIT, Direction, RouteMap
from repro.farm import enumerate_jobs
from repro.farm.keys import FarmOptions
from repro.farm.pool import BatchReport
from repro.farm.supervise import run_supervised
from repro.farm.report import (
    EXIT_FAILURE,
    EXIT_OK,
    audit_totals,
    exit_code,
    job_row,
    normalize_document,
)


def _audited_batch(s1, cache_dir, seed=0):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    options = FarmOptions(audit=True, audit_seed=seed)
    return run_supervised(
        s1.paper_config, s1.specification, jobs,
        options=options, cache_dir=cache_dir,
    )


class TestAuditStage:
    def test_every_answer_gets_a_verdict(self, s1, tmp_path):
        report = _audited_batch(s1, str(tmp_path))
        assert report.audited == len(report.results)
        for result in report.results:
            audit = result.audit
            assert audit is not None
            assert audit["schema"] == "repro-audit/1"
            assert audit["verdict"] == "confirmed"
            assert audit["seed"] == 0
        assert report.audit_refuted == 0
        assert report.metrics.counters["audit.suites"] == len(report.results)

    def test_warm_batch_replays_verdicts_from_the_cache(self, s1, tmp_path):
        cold = _audited_batch(s1, str(tmp_path))
        warm = _audited_batch(s1, str(tmp_path))
        assert [r.audit for r in warm.results] == [
            r.audit for r in cold.results
        ]
        counters = warm.metrics.counters
        assert counters["audit.cache.hits"] == len(warm.results)
        assert "audit.suites" not in counters

    def test_changing_the_seed_reaudits(self, s1, tmp_path):
        _audited_batch(s1, str(tmp_path), seed=0)
        reseeded = _audited_batch(s1, str(tmp_path), seed=1)
        counters = reseeded.metrics.counters
        assert counters["audit.suites"] == len(reseeded.results)
        assert all(r.audit["seed"] == 1 for r in reseeded.results)


    def test_an_edit_elsewhere_in_the_network_reaudits(self, s1, tmp_path):
        # R2's job key does not cover R1's export map, but the oracle
        # simulates the whole network: after an edit there, R2's
        # verdict must be recomputed, never served from the store.
        _audited_batch(s1, str(tmp_path))
        edited = s1.paper_config.copy()
        routemap = edited.get_map("R1", "out", "P1")
        first = routemap.lines[0]
        flipped = replace(
            first, action=DENY if first.action == PERMIT else PERMIT
        )
        edited.set_map("R1", Direction.OUT, "P1", RouteMap(
            routemap.name, (flipped,) + tuple(routemap.lines[1:]),
        ))
        jobs = enumerate_jobs(edited, s1.specification)
        options = FarmOptions(audit=True)
        warm = run_supervised(
            edited, s1.specification, jobs,
            options=options, cache_dir=str(tmp_path),
        )
        cold = run_supervised(
            edited, s1.specification, jobs, options=options,
        )
        r2 = next(r for r in warm.results if r.job.device == "R2")
        assert not r2.cached and r2.audit is not None
        assert warm.metrics.counters.get("audit.cache.hits", 0) == 0
        assert [r.audit for r in warm.results] == [
            r.audit for r in cold.results
        ]


class TestObservational:
    """Auditing never changes the non-audit output, byte for byte."""

    def test_audit_off_document_is_byte_identical(self, s1, tmp_path):
        from repro.farm.worker import reset_shared_slot

        jobs = enumerate_jobs(s1.paper_config, s1.specification)
        reset_shared_slot()
        plain = run_supervised(
            s1.paper_config, s1.specification, jobs,
            cache_dir=str(tmp_path / "plain"),
        )
        reset_shared_slot()
        audited = _audited_batch(s1, str(tmp_path / "audited"))

        def strip_audit(document):
            document = normalize_document(document)
            document.pop("audit")
            for row in document["jobs"]:
                row.pop("audit")
            document["counters"] = {
                name: value
                for name, value in document["counters"].items()
                if not name.startswith("audit.")
                and not name.endswith(".audit")
            }
            document["bench"]["stages"] = [
                stage
                for stage in document["bench"]["stages"]
                if stage["stage"] != "audit"
            ]
            return document

        plain_doc = plain.to_dict()
        assert plain_doc["audit"] is None
        assert all(row["audit"] is None for row in plain_doc["jobs"])
        assert json.dumps(strip_audit(plain_doc), sort_keys=True) == \
            json.dumps(strip_audit(audited.to_dict()), sort_keys=True)

    def test_audit_reuses_the_plain_explanation_cache(self, s1, tmp_path):
        jobs = enumerate_jobs(s1.paper_config, s1.specification)
        run_supervised(
            s1.paper_config, s1.specification, jobs,
            cache_dir=str(tmp_path),
        )
        audited = _audited_batch(s1, str(tmp_path))
        # Same cache dir: the answers come back cached because audit
        # knobs are excluded from job keys; only the audit is fresh.
        assert all(r.cached for r in audited.results)
        assert audited.metrics.counters["audit.suites"] == len(jobs)


class TestReportWiring:
    def test_document_carries_the_audit_section(self, s1, tmp_path):
        report = _audited_batch(s1, str(tmp_path))
        document = report.to_dict()
        section = document["audit"]
        assert section["audited"] == len(report.results)
        assert section["verdicts"] == {"confirmed": len(report.results)}
        assert section["refuted"] == 0 and section["repaired"] == 0
        assert "audit:" in report.summary_table()

    def test_audit_totals_counts_refutations(self):
        rows = [
            {"audit": {"verdict": "confirmed", "repaired": False}},
            {"audit": {"verdict": "too-weak", "repaired": False,
                       "relifts": 2}},
            {"audit": {"verdict": "too-strong", "repaired": True,
                       "relifts": 1}},
            {"audit": None},
        ]
        totals = audit_totals(rows)
        assert totals == {
            "audited": 3,
            "verdicts": {"confirmed": 1, "too-strong": 1, "too-weak": 1},
            "refuted": 1,
            "repaired": 1,
            "relifts": 3,
        }
        assert audit_totals([{"audit": None}]) is None

    def test_refuted_audit_fails_the_exit_code(self, s1, tmp_path):
        report = _audited_batch(s1, str(tmp_path))
        assert exit_code(report) == EXIT_OK
        # Inject a refutation into one verdict and re-derive.
        report.results[0].audit = dict(
            report.results[0].audit, verdict="too-weak", repaired=False
        )
        assert report.audit_refuted == 1
        assert exit_code(report) == EXIT_FAILURE

    def test_job_row_carries_the_verdict(self, s1, tmp_path):
        report = _audited_batch(s1, str(tmp_path))
        row = job_row(report.results[0])
        assert row["audit"]["verdict"] == "confirmed"


class TestApiKnobs:
    def test_request_threads_audit_into_farm_options(self):
        request = ExplainRequest(
            scenario="scenario1", audit=True, audit_seed=5
        )
        options = request.options()
        assert options.audit and options.audit_seed == 5
        payload = request.payload()
        assert payload["audit"] is True and payload["audit_seed"] == 5
        parsed = ExplainRequest.from_payload(payload)
        assert parsed.audit and parsed.audit_seed == 5

    def test_audit_knobs_do_not_rekey_the_batch(self):
        plain = FarmOptions()
        audited = FarmOptions(audit=True, audit_seed=7)
        assert plain.payload() == audited.payload()
        assert audited.audit_payload() == {"audit": True, "audit_seed": 7}
