"""The worker pool: fan jobs out, fold metrics back in.

``-j N`` with ``N > 1`` runs jobs on a :class:`ProcessPoolExecutor`
(each worker re-opens the shared artifact store; writes are atomic, so
concurrent workers are safe); ``-j 1`` is a plain serial loop with no
multiprocessing machinery at all -- the fallback for environments where
fork/spawn is unavailable or undesirable.

One aggregate ``--budget`` is split into deterministic per-job shares
that sum to the batch budget (:func:`repro.runtime.split_budget`);
``--timeout`` applies to each job individually (a batch-wide
wall-clock deadline would make a job's outcome depend on its position
in the schedule, destroying cache determinism).

Results are collected with :func:`~concurrent.futures.as_completed`
and every per-future exception -- a worker killed by the OS, a broken
pool, an unpicklable result -- is converted into a ``FAILED``
:class:`JobResult` for that job alone: even the minimal non-supervised
path survives one bad job.  For retries, hang watchdogs, quarantine
and crash-safe resume, see :mod:`repro.farm.supervise`.

Every worker ships its :class:`MetricsRegistry` home inside the
:class:`JobResult`; the batch merges them (counters add, histograms
concatenate) into one registry, from which the BENCH-compatible
per-stage report is derived exactly as the benchmark harness does.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs import (
    BenchReport,
    Instrumentation,
    MetricsRegistry,
    SPAN_PREFIX,
    StageRecord,
    percentile,
)
from ..runtime import TRANSIENT, split_budget
from ..spec.ast import Specification
from ..bgp.config import NetworkConfig
from ..explain.serialize import subspec_from_dict
from . import report as report_mod
from .invalidate import compute_dirty
from .job import ExplainJob, JobFamily, group_families
from .keys import FarmOptions
from .store import ArtifactStore, StoredPayload
from .worker import (
    JobResult,
    STATUS_CACHED,
    STATUS_ERROR,
    run_audit,
    run_family,
    run_job,
    shared_batch_key,
)

__all__ = ["BatchReport", "run_batch", "run_incremental"]


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
        records: List[StageRecord] = []
        for name in self.metrics.histogram_names:
            if not name.startswith(SPAN_PREFIX):
                continue
            stage = name[len(SPAN_PREFIX):]
            samples = self.metrics.samples(name)
            counters = {
                counter[len(stage) + 1:]: value
                for counter, value in self.metrics.counters.items()
                if counter.startswith(stage + ":")
            }
            records.append(
                StageRecord(
                    scenario=self.scenario,
                    stage=stage,
                    runs=len(samples),
                    median_s=percentile(samples, 0.50),
                    p95_s=percentile(samples, 0.95),
                    total_s=sum(samples),
                    counters=counters,
                )
            )
        records.sort(key=lambda record: record.stage)
        return records

    def to_bench_report(self) -> BenchReport:
        return BenchReport(
            stages=self.stage_records(), source="repro.farm", repeat=1
        )

    def to_dict(self) -> Dict[str, object]:
        """The ``--json`` report document."""
        return report_mod.report_document(self)


def _member_indices(
    jobs: List[ExplainJob], families: List[JobFamily]
) -> Dict[int, List[int]]:
    """family.index -> each member's position in the original batch."""
    positions: Dict[ExplainJob, List[int]] = {}
    for index, job in enumerate(jobs):
        positions.setdefault(job, []).append(index)
    return {
        family.index: [positions[job].pop(0) for job in family.jobs]
        for family in families
    }


def _merge_metrics(report: BatchReport) -> None:
    for result in report.results:
        report.metrics.merge(result.metrics)


def run_batch(
    config: NetworkConfig,
    specification: Specification,
    jobs: List[ExplainJob],
    options: Optional[FarmOptions] = None,
    cache_dir: Optional[str] = None,
    workers: int = 1,
    timeout: Optional[float] = None,
    budget: Optional[int] = None,
    scenario: str = "batch",
    share: bool = True,
) -> BatchReport:
    """Answer every job, serially or on a process pool.

    With ``share`` (the default), jobs are grouped into
    :class:`JobFamily` units -- the per-line questions of one (device,
    requirement block) -- and each family is dispatched to one worker,
    which answers its members against a process-local
    :class:`~repro.explain.family.SharedCaches`.  Sharing silently
    disables itself under ``--timeout``/``--budget`` (governed answers
    must not depend on sibling work); ``share=False`` restores per-job
    dispatch with no shared state at all.  Either way, per-job cache
    keys, stored artifacts and read-sets are byte-identical.

    This is the minimal, non-supervised path: no retries, no watchdog
    -- but a dead worker or unpicklable result fails only its own job
    (its own family, under family dispatch), never the batch.  Use
    :func:`repro.farm.supervise.run_supervised` for fault tolerance.
    """
    if options is None:
        options = FarmOptions()
    started = time.perf_counter()
    shares = split_budget(budget, len(jobs)) if jobs else None
    results: List[JobResult] = []
    if not share:
        if workers <= 1 or len(jobs) <= 1:
            for index, job in enumerate(jobs):
                results.append(
                    run_job(
                        config, specification, job, options,
                        cache_dir, timeout,
                        shares[index] if shares is not None else None,
                    )
                )
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                job_of = {
                    pool.submit(
                        run_job, config, specification, job, options,
                        cache_dir, timeout,
                        shares[index] if shares is not None else None,
                    ): (index, job)
                    for index, job in enumerate(jobs)
                }
                collected: Dict[int, JobResult] = {}
                for future in as_completed(job_of):
                    index, job = job_of[future]
                    try:
                        collected[index] = future.result()
                    except Exception as exc:
                        # The worker died (or its result cannot cross
                        # the process boundary): fail this job, keep
                        # siblings.
                        collected[index] = JobResult(
                            job=job, key=None, status=STATUS_ERROR,
                            cached=False, duration_s=0.0,
                            error=f"{type(exc).__name__}: {exc}",
                            error_kind=TRANSIENT,
                        )
                results = [collected[index] for index in range(len(jobs))]
    else:
        families = group_families(jobs)
        members = _member_indices(jobs, families)
        shared_key = (
            shared_batch_key(config, specification, options)
            if timeout is None and budget is None
            else None
        )

        def family_args(family: JobFamily):
            indices = members[family.index]
            budgets = (
                [shares[i] for i in indices] if shares is not None else None
            )
            return (
                config, specification, family.jobs, options, cache_dir,
                timeout, budgets, None, None, shared_key,
            )

        by_index: Dict[int, JobResult] = {}
        if workers <= 1 or len(families) <= 1:
            for family in families:
                for i, result in zip(
                    members[family.index], run_family(*family_args(family))
                ):
                    by_index[i] = result
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                family_of = {
                    pool.submit(run_family, *family_args(family)): family
                    for family in families
                }
                for future in as_completed(family_of):
                    family = family_of[future]
                    indices = members[family.index]
                    try:
                        for i, result in zip(indices, future.result()):
                            by_index[i] = result
                    except Exception as exc:
                        # The worker died mid-family: fail every member
                        # (their shared state is suspect), keep other
                        # families.
                        for i in indices:
                            by_index[i] = JobResult(
                                job=jobs[i], key=None, status=STATUS_ERROR,
                                cached=False, duration_s=0.0,
                                error=f"{type(exc).__name__}: {exc}",
                                error_kind=TRANSIENT,
                            )
        results = [by_index[index] for index in range(len(jobs))]
    report = BatchReport(
        scenario=scenario,
        results=results,
        workers=max(1, workers),
        wall_s=time.perf_counter() - started,
    )
    _merge_metrics(report)
    return report


def run_incremental(
    old_config: NetworkConfig,
    new_config: NetworkConfig,
    specification: Specification,
    jobs: List[ExplainJob],
    options: Optional[FarmOptions] = None,
    cache_dir: Optional[str] = None,
    workers: int = 1,
    timeout: Optional[float] = None,
    budget: Optional[int] = None,
    scenario: str = "batch",
    share: bool = True,
) -> BatchReport:
    """Re-run only the jobs an edit actually dirtied.

    Jobs whose key is unchanged *and* whose stored read-set replays
    cleanly against ``new_config`` are served from the store without
    touching the pipeline; everything else goes through
    :func:`run_batch` as usual.  Requires a cache directory (without
    one there is nothing to be incremental against).
    """
    if cache_dir is None:
        raise ValueError("incremental runs need a cache directory")
    if options is None:
        options = FarmOptions()
    started = time.perf_counter()
    store = ArtifactStore(cache_dir)
    dirty, clean = compute_dirty(
        old_config, new_config, specification, jobs, options, store
    )
    batch = run_batch(
        new_config, specification, dirty, options, cache_dir,
        workers, timeout, budget, scenario, share=share,
    )
    # Serve the provably-clean jobs from the store, preserving the
    # original enumeration order in the final report.
    served: Dict[ExplainJob, JobResult] = {r.job: r for r in batch.results}
    for job, key in clean.items():
        text = store.load_text(key, "explanation")
        assert text is not None  # compute_dirty checked it exists
        payload = StoredPayload(text)
        obs = Instrumentation()
        obs.metrics.count("farm.cache.full_hit")
        obs.metrics.count(f"farm.jobs.{STATUS_CACHED}")
        # Clean jobs still answer for their subspec: the audit stage is
        # store-cached by (key, subspec, seed), so warm replays are
        # free, but a first audited run probes even untouched answers.
        audit = (
            run_audit(
                new_config, specification, job, options, store, key,
                payload, obs,
            )
            if options.audit
            else None
        )
        served[job] = JobResult(
            job=job, key=key, status=STATUS_CACHED, cached=True,
            duration_s=0.0,
            subspec=subspec_from_dict(payload["subspec"]).render(),
            explanation=payload, metrics=obs.metrics, audit=audit,
        )
    report = BatchReport(
        scenario=scenario,
        results=[served[job] for job in jobs if job in served],
        workers=max(1, workers),
        wall_s=time.perf_counter() - started,
    )
    report.metrics = MetricsRegistry()
    _merge_metrics(report)
    report.metrics.count("farm.incremental.dirty", len(dirty))
    report.metrics.count("farm.incremental.clean", len(clean))
    return report
