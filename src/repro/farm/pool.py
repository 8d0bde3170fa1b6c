"""The batch report: every job's result, and the batch's merged metrics.

A batch runs under :class:`repro.farm.supervise.Supervisor` -- the one
executor -- serially (``-j 1``), on a per-batch process pool
(``-j N``), or on a lent :class:`~repro.farm.fleet.WorkerFleet`.
Every worker ships its :class:`MetricsRegistry` home inside the
:class:`JobResult`; the batch merges them (counters add, histograms
concatenate) into one registry, from which the BENCH-compatible
per-stage report is derived exactly as the benchmark harness does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs import BenchReport, MetricsRegistry, StageRecord, stage_records
from . import report as report_mod
from .worker import STATUS_ERROR, JobResult

__all__ = ["BatchReport"]


@dataclass
class BatchReport:
    """Everything one ``explain-all`` invocation produced."""

    scenario: str
    results: List[JobResult]
    workers: int
    wall_s: float
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    # -- aggregate views -----------------------------------------------

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def degraded(self) -> int:
        return sum(1 for r in self.results if r.degraded)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == STATUS_ERROR)

    @property
    def quarantined(self) -> int:
        return sum(1 for r in self.results if r.quarantined)

    @property
    def retried(self) -> int:
        """Jobs that needed more than one attempt (supervised runs)."""
        return sum(1 for r in self.results if r.attempts > 1)

    @property
    def cached(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def audited(self) -> int:
        """Jobs whose answer went through the adversarial audit."""
        return sum(1 for r in self.results if r.audit is not None)

    @property
    def audit_refuted(self) -> int:
        """Audited jobs whose final verdict refutes the subspec (a
        repaired re-lift does not count: the record keeps the refuting
        label, but the served answer was proven good)."""
        return sum(
            1
            for r in self.results
            if r.audit is not None
            and r.audit.get("verdict") in ("too-weak", "too-strong")
            and not r.audit.get("repaired")
        )

    @property
    def audit_repaired(self) -> int:
        return sum(
            1
            for r in self.results
            if r.audit is not None and r.audit.get("repaired")
        )

    @property
    def cpu_s(self) -> float:
        """Summed per-job runtime (compare against ``wall_s`` for the
        parallel speedup actually realized)."""
        return sum(r.duration_s for r in self.results)

    def stage_cache_rate(self) -> Optional[float]:
        """Fraction of per-stage store probes that hit, or ``None``
        when the batch ran without a store."""
        hits = sum(
            value
            for name, value in self.metrics.counters.items()
            if name.startswith("farm.store.hit.")
        )
        misses = sum(
            value
            for name, value in self.metrics.counters.items()
            if name.startswith("farm.store.miss.")
        )
        if hits + misses == 0:
            return None
        return hits / (hits + misses)

    # -- rendering ------------------------------------------------------
    #
    # The table and document shapes live in repro.farm.report (the
    # single source of truth the CLI, the serving layer and the typed
    # facade share); these methods are thin delegates kept for callers
    # holding a report object.

    def summary_table(self) -> str:
        """The human-readable per-job table plus batch totals."""
        return report_mod.summary_table(self)

    def stage_records(self) -> List[StageRecord]:
        """Per-stage records in the benchmark harness's shape."""
        return stage_records(self.scenario, self.metrics)

    def to_bench_report(self) -> BenchReport:
        return BenchReport(
            stages=self.stage_records(), source="repro.farm", repeat=1
        )

    def to_dict(self) -> Dict[str, object]:
        """The ``--json`` report document."""
        return report_mod.report_document(self)


def _merge_metrics(report: BatchReport) -> None:
    for result in report.results:
        report.metrics.merge(result.metrics)
