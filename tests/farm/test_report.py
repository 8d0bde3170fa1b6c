"""Regression tests for repro.farm.report: the shape must not move.

The goldens under ``tests/farm/golden/`` pin the wire shape: a
synthetic, fully deterministic ``BatchReport`` covering every job
status, serialized byte for byte.  Originally captured from the
pre-extraction code (when the document and summary table were inlined
in ``pool.py``/``worker.py``); re-captured once for the
``repro-farm-report/2`` schema bump (per-job ``audit`` field plus the
top-level ``audit`` section).  Every wire consumer (CLI ``--json``
files, the serving layer's result endpoint) depends on these bytes.
"""

import json
import os

import pytest

from repro.explain import ExplanationStatus
from repro.farm import report as report_mod
from repro.farm.job import ExplainJob
from repro.farm.pool import BatchReport
from repro.farm.report import (
    ALL_STATUSES,
    DEGRADED_STATUSES,
    OK_STATUSES,
    dump_document,
    exit_code,
    normalize_document,
    summary_from_document,
)
from repro.farm.worker import JobResult
from repro.obs import MetricsRegistry, SPAN_PREFIX

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _metrics(counters=(), spans=()):
    registry = MetricsRegistry()
    for name, value in counters:
        registry.count(name, value)
    for name, samples in spans:
        for sample in samples:
            registry.observe(SPAN_PREFIX + name, sample)
    return registry


def golden_report() -> BatchReport:
    """The synthetic batch the goldens were captured from (verbatim)."""
    results = [
        JobResult(
            job=ExplainJob(device="R1", requirement="Req1"), key="ab" * 32,
            status="EXACT", cached=False, duration_s=0.1234,
            subspec="Req1 { permit }",
            explanation={"schema": "repro-explain/1",
                         "subspec": "Req1 { permit }"},
            metrics=_metrics(
                counters=[("farm.store.hit.seed", 1),
                          ("farm.store.miss.lift", 1),
                          ("smt.session.instances", 1), ("engine.runs", 1)],
                spans=[("engine.seed", [0.25, 0.5]), ("engine.lift", [1.0])],
            ),
        ),
        JobResult(
            job=ExplainJob(device="R1", requirement="Req2"), key="cd" * 32,
            status="CACHED", cached=True, duration_s=0.0,
            subspec="Req2 { deny }",
            explanation={"schema": "repro-explain/1",
                         "subspec": "Req2 { deny }"},
            metrics=_metrics(counters=[("farm.cache.full_hit", 1),
                                       ("farm.store.hit.explanation", 1)]),
        ),
        JobResult(
            job=ExplainJob(device="R2", requirement="Req1"), key="ef" * 32,
            status="DEGRADED_LIFT", cached=False, duration_s=2.5,
            subspec="Req1 { ??? }", error="budget exhausted during lift",
            explanation={"schema": "repro-explain/1",
                         "subspec": "Req1 { ??? }"},
            metrics=_metrics(counters=[("engine.degraded", 1)]),
        ),
        JobResult(
            job=ExplainJob(device="R2", requirement="Req2"), key=None,
            status="ERROR", cached=False, duration_s=0.01,
            error="SymbolizationError: no lines", error_kind="permanent",
            metrics=_metrics(counters=[("farm.jobs.ERROR", 1)]),
        ),
        JobResult(
            job=ExplainJob(device="R3", requirement="Req1"), key="01" * 32,
            status="QUARANTINED", cached=False, duration_s=0.0,
            error="WorkerHang: no result within 1.0s", error_kind="transient",
            attempts=3, quarantined=True,
            metrics=_metrics(counters=[("farm.supervise.retry", 2),
                                       ("farm.supervise.quarantine", 1)]),
        ),
        JobResult(
            job=ExplainJob(device="R3", requirement="Req2"), key="23" * 32,
            status="EXACT", cached=False, duration_s=0.75,
            subspec="Req2 { permit }", attempts=2,
            explanation={"schema": "repro-explain/1",
                         "subspec": "Req2 { permit }"},
            metrics=_metrics(
                counters=[("farm.store.store.explanation", 1),
                          ("smt.sat.conflicts", 42)],
                spans=[("engine.seed", [0.125])],
            ),
        ),
    ]
    report = BatchReport(
        scenario="golden", results=results, workers=2, wall_s=3.21875
    )
    for result in results:
        report.metrics.merge(result.metrics)
    return report


class TestGoldenByteIdentity:
    def test_document_bytes_unchanged(self):
        with open(os.path.join(GOLDEN_DIR, "farm_report.json"), "rb") as fh:
            golden = fh.read()
        produced = dump_document(golden_report().to_dict()).encode("ascii")
        assert produced == golden

    def test_summary_table_unchanged(self):
        with open(os.path.join(GOLDEN_DIR, "farm_summary.txt"), "r") as fh:
            golden = fh.read()
        assert golden_report().summary_table() + "\n" == golden

    def test_summary_from_document_matches_live_table(self):
        report = golden_report()
        assert summary_from_document(report.to_dict()) == report.summary_table()


class TestStatusTaxonomy:
    def test_engine_statuses_mirrored_exactly(self):
        # The wire vocabulary intentionally duplicates the engine enum;
        # this pin fails if either side drifts.
        engine = {status.name for status in ExplanationStatus}
        assert {"EXACT", "DEGRADED_LIFT", "DEGRADED_RAW", "FAILED"} <= engine
        assert report_mod.STATUS_EXACT == ExplanationStatus.EXACT.name
        assert (
            report_mod.STATUS_DEGRADED_LIFT
            == ExplanationStatus.DEGRADED_LIFT.name
        )
        assert (
            report_mod.STATUS_DEGRADED_RAW
            == ExplanationStatus.DEGRADED_RAW.name
        )
        assert report_mod.STATUS_FAILED == ExplanationStatus.FAILED.name

    def test_partition(self):
        assert OK_STATUSES <= ALL_STATUSES
        assert DEGRADED_STATUSES <= ALL_STATUSES
        assert not OK_STATUSES & DEGRADED_STATUSES

    def test_worker_reexports_are_the_same_objects(self):
        from repro.farm import worker

        assert worker.STATUS_CACHED is report_mod.STATUS_CACHED
        assert worker.STATUS_ERROR is report_mod.STATUS_ERROR
        assert worker.STATUS_QUARANTINED is report_mod.STATUS_QUARANTINED

    def test_cli_exit_codes_are_aliases(self):
        from repro import cli

        assert cli.EXIT_OK is report_mod.EXIT_OK
        assert cli.EXIT_PARTIAL == report_mod.EXIT_PARTIAL == 7
        assert cli.EXIT_INTERNAL == report_mod.EXIT_INTERNAL == 70


class TestExitCode:
    def test_precedence(self):
        report = golden_report()
        # Golden batch has a failure: failure dominates everything.
        assert exit_code(report) == report_mod.EXIT_FAILURE

    def test_quarantine_beats_degradation(self):
        report = golden_report()
        kept = [r for r in report.results if r.status != "ERROR"]
        partial = BatchReport(
            scenario="g", results=kept, workers=1, wall_s=0.0
        )
        assert exit_code(partial) == report_mod.EXIT_PARTIAL

    def test_degraded_blames_the_configured_limit(self):
        degraded_only = [
            r for r in golden_report().results
            if r.status in ("EXACT", "DEGRADED_LIFT")
        ]
        report = BatchReport(
            scenario="g", results=degraded_only, workers=1, wall_s=0.0
        )
        assert exit_code(report, timeout=1.0) == report_mod.EXIT_TIMEOUT
        assert exit_code(report, budget=10) == report_mod.EXIT_BUDGET
        assert (
            exit_code(report, timeout=1.0, budget=10) == report_mod.EXIT_BUDGET
        )

    def test_clean_batch(self):
        clean = [r for r in golden_report().results if r.status == "EXACT"]
        report = BatchReport(scenario="g", results=clean, workers=1, wall_s=0.0)
        assert exit_code(report) == report_mod.EXIT_OK


class TestNormalizeDocument:
    def test_zeroes_only_the_volatile_fields(self):
        document = golden_report().to_dict()
        normalized = normalize_document(document)
        assert normalized["wall_s"] == 0.0
        assert normalized["cpu_s"] == 0.0
        assert all(row["duration_s"] == 0.0 for row in normalized["jobs"])
        assert normalized["bench"]["calibration_s"] is None
        for stage in normalized["bench"]["stages"]:
            assert stage["median_s"] == stage["p95_s"] == stage["total_s"] == 0.0
        # Everything informative survives.
        assert normalized["counters"] == document["counters"]
        assert normalized["totals"] == document["totals"]
        assert [row["job"] for row in normalized["jobs"]] == [
            row["job"] for row in document["jobs"]
        ]

    def test_does_not_mutate_input(self):
        document = golden_report().to_dict()
        snapshot = json.dumps(document, sort_keys=True)
        normalize_document(document)
        assert json.dumps(document, sort_keys=True) == snapshot

    def test_two_runs_same_answers_compare_equal(self):
        one = normalize_document(golden_report().to_dict())
        two = normalize_document(golden_report().to_dict())
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


class TestDeprecatedFarmRootImports:
    def test_unknown_attribute_still_raises(self):
        import repro.farm as farm

        with pytest.raises(AttributeError):
            farm.definitely_not_a_thing
