"""The per-job runner (one call = one explanation question).

:func:`run_job` is a module-level function taking only picklable
arguments and returning a picklable :class:`JobResult`, so the pool can
ship it to worker processes unchanged; running it inline is the serial
(``-j 1``) fallback.

Per-job flow::

    symbolize -> key -> full-hit probe (answer + valid read-set?)
        hit:  return the stored answer (no pipeline work; the read-set
              entries are loaded only if a touched map's text changed)
        miss: run the governed engine from scratch with a
              TransferRecorder (no stage is ever stored or resumed,
              so a governed answer depends only on the question and
              its budget), then persist the answer + read-set
              (entries, then head) iff the run was EXACT

Failures are contained: any exception becomes an ``ERROR`` result with
the per-job metrics collected so far -- one failing device never kills
the batch.  Each error is classified transient or permanent
(:func:`repro.runtime.error_kind`) inside the worker, so the
supervisor on the other side of the process boundary knows whether a
retry can help without re-raising anything.  Degraded (governed) runs
return their status but are never cached; a later run with more budget
must not be served a truncated answer.

Chaos hooks: when a :class:`~repro.runtime.ChaosPlan` rides along, the
worker consults it when it picks the job up (kill / hang / flaky) and
again after persisting artifacts (corrupt) -- see
``tests/farm/test_chaos.py`` for the recovery paths this exercises.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..bgp.config import NetworkConfig
from ..bgp.render import render_network
from ..explain.engine import Explanation, ExplanationEngine, ExplanationStatus
from ..explain.family import SharedCaches
from ..explain.serialize import explanation_to_dict, subspec_from_dict
from ..obs import Instrumentation, MetricsRegistry
from ..runtime import (
    CHAOS_CORRUPT,
    CHAOS_FLAKY,
    CHAOS_HANG,
    CHAOS_KILL,
    ChaosPlan,
    Governor,
    TransientError,
    error_kind,
)
from ..spec.ast import Specification
from ..synthesis.symexec import AttributeUniverse
from ..spec.printer import format_specification
from .invalidate import readset_valid
from .job import ExplainJob
from .keys import FarmOptions, digest, job_key
from .readset import ENTRIES_STAGE, READSET_STAGE, TransferRecorder
from .report import (
    DEGRADED_STATUSES,
    OK_STATUSES,
    STATUS_CACHED,
    STATUS_ERROR,
    STATUS_QUARANTINED,
    job_row,
)
from .store import ArtifactStore, StoredPayload

__all__ = [
    "JobResult",
    "audit_artifact_key",
    "cached_result",
    "reset_shared_slot",
    "run_audit",
    "run_family",
    "run_job",
    "shared_batch_key",
    "take_residency_stats",
    "STATUS_ERROR",
    "STATUS_CACHED",
    "STATUS_QUARANTINED",
]

#: Store stage name under which audit verdicts are persisted.
AUDIT_STAGE = "audit"

#: Bumped whenever the shared-cache identity payload changes.
SHARED_KEY_SCHEMA = "repro-farm-shared/1"

# STATUS_ERROR / STATUS_CACHED / STATUS_QUARANTINED are defined in
# repro.farm.report (the status-taxonomy source of truth) and
# re-exported here for the worker's historical callers.

#: 1-based count of jobs this worker process has picked up; chaos
#: events can target "the Nth job of a worker" through it.
_JOB_ORDINAL = 0


@dataclass
class JobResult:
    """The picklable outcome of one job."""

    job: ExplainJob
    key: Optional[str]
    status: str
    cached: bool
    duration_s: float
    subspec: str = ""
    error: Optional[str] = None
    #: ``"transient"`` / ``"permanent"`` for errored jobs (the
    #: supervisor's retry decision), ``None`` otherwise.
    error_kind: Optional[str] = None
    #: How many attempts this job consumed (set by the supervisor; the
    #: unsupervised path always reports 1).
    attempts: int = 1
    #: Whether the job exhausted its retries and was quarantined.
    quarantined: bool = False
    #: The schema-stamped explanation payload (timings stripped), for
    #: ``--json`` reports and byte-level result comparisons.  ``None``
    #: for errored jobs.  Answers served from or saved to the store are
    #: a :class:`~repro.farm.store.StoredPayload` (canonical JSON text,
    #: decoded on first access, pickled as the text alone); uncached
    #: answers are plain dicts.  Treat it as a read-only mapping.
    explanation: Optional[Mapping[str, Any]] = None
    #: The adversarial audit verdict payload (``repro-audit/1``), or
    #: ``None`` when the audit stage did not run for this job.
    audit: Optional[dict] = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES

    @property
    def degraded(self) -> bool:
        return self.status in DEGRADED_STATUSES

    def row(self) -> Dict[str, object]:
        """One summary-table / JSON-report row."""
        return job_row(self)


def _answer_payload(explanation: Explanation) -> dict:
    """The persistent form of an answer: timings are run-specific
    measurements, not part of the answer, so they are stripped to keep
    stored artifacts deterministic and byte-comparable."""
    payload = explanation_to_dict(explanation)
    payload["timings"] = {}
    return payload


def _sketch_universe_of(sketch: NetworkConfig) -> AttributeUniverse:
    configs = [
        sketch.router_config(name) for name in sketch.topology.router_names
    ]
    return AttributeUniverse.collect(configs, sketch.topology)


def _apply_pickup_chaos(
    chaos: Optional[ChaosPlan], job_id: str, ordinal: int, attempt: int
) -> None:
    """Kill / hang / flaky faults fire when the worker picks a job up."""
    if chaos is None:
        return
    if chaos.select(CHAOS_KILL, job_id, ordinal, attempt):
        os._exit(chaos.select(CHAOS_KILL, job_id, ordinal, attempt)[0].exit_code)
    for event in chaos.select(CHAOS_HANG, job_id, ordinal, attempt):
        time.sleep(event.seconds)
    for event in chaos.select(CHAOS_FLAKY, job_id, ordinal, attempt):
        raise TransientError(
            f"injected transient fault ({job_id} attempt {attempt})"
        )


def _apply_corrupt_chaos(
    chaos: Optional[ChaosPlan],
    store: Optional[ArtifactStore],
    job_id: str,
    key: str,
    ordinal: int,
    attempt: int,
) -> None:
    """Truncate stored artifacts the plan marks for corruption."""
    if chaos is None or store is None:
        return
    for event in chaos.select(CHAOS_CORRUPT, job_id, ordinal, attempt):
        path = store.path_for(key, event.stage)
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(max(1, size // 2))
        except OSError:
            pass


def audit_artifact_key(key: str, subspec_payload: dict, seed: int, config: NetworkConfig) -> str:
    """The content address of one audit verdict.

    Covers the job key, the *subspecification under audit*, the suite
    seed and the whole rendered network (the oracle simulates all of
    it; the job key covers only the job's own inputs) -- so a tampered
    or re-lifted subspec, a new seed or any network edit re-audits.
    """
    from ..audit import AUDIT_SCHEMA

    return digest(
        {
            "schema": AUDIT_SCHEMA,
            "job": key,
            "subspec": subspec_payload,
            "seed": seed,
            "network": render_network(config),
        }
    )


def run_audit(
    config: NetworkConfig,
    specification: Specification,
    job: ExplainJob,
    options: FarmOptions,
    store: Optional[ArtifactStore],
    key: str,
    answer: Mapping[str, Any],
    obs: Instrumentation,
    sketch: Optional[NetworkConfig] = None,
    holes=None,
) -> dict:
    """Run (or serve from cache) the audit stage for one answered job.

    The verdict is content-addressed by (job key, subspec payload,
    suite seed, rendered network) under the ``audit`` store stage, so
    warm batches replay it for free and a changed answer or network is
    always re-audited.  Audit failures degrade to an ``unresolved``
    verdict carrying the error -- the audit stage may refute an
    answer, never destroy one.
    """
    from ..audit import Adjudicator, AuditReport, VERDICT_UNRESOLVED

    subspec_payload = answer["subspec"]
    audit_key = audit_artifact_key(key, subspec_payload, options.audit_seed, config)
    if store is not None:
        stored = store.load(audit_key, AUDIT_STAGE)
        if stored is not None:
            try:
                AuditReport.from_dict(stored)
            except (KeyError, TypeError, ValueError):
                pass
            else:
                obs.metrics.count("audit.cache.hits")
                return stored
    try:
        with obs.span(AUDIT_STAGE):
            if sketch is None or holes is None:
                sketch, holes = job.symbolize(config)
            subspec = subspec_from_dict(subspec_payload)
            adjudicator = Adjudicator(
                sketch,
                specification,
                holes,
                job.device,
                requirement=job.requirement,
                seed=options.audit_seed,
                max_path_length=options.max_path_length,
                ibgp=options.ibgp,
                obs=obs,
            )

            def relift(forced_acceptances, forced_rejections):
                engine = ExplanationEngine(
                    config,
                    specification,
                    max_path_length=options.max_path_length,
                    projection_limit=options.projection_limit,
                    ibgp=options.ibgp,
                )
                return engine.relift(
                    job.device, sketch, holes, job.requirement,
                    forced_acceptances=forced_acceptances,
                    forced_rejections=forced_rejections,
                ).subspec

            payload = adjudicator.adjudicate(subspec, relift=relift).to_dict()
    except Exception as exc:
        obs.metrics.count("audit.errors")
        return AuditReport(
            verdict=VERDICT_UNRESOLVED,
            seed=options.audit_seed,
            cases=0,
            agreements=0,
            disagreements=0,
            unresolved=0,
            space=0,
            exhaustive=False,
            error=f"{type(exc).__name__}: {exc}",
        ).to_dict()
    if store is not None:
        store.save(audit_key, AUDIT_STAGE, payload)
    return payload


def cached_result(
    config: NetworkConfig,
    specification: Specification,
    job: ExplainJob,
    options: FarmOptions,
    store: ArtifactStore,
    key: str,
    answer_text: str,
    obs: Instrumentation,
    sketch: Optional[NetworkConfig] = None,
    holes=None,
) -> JobResult:
    """The ``CACHED`` result of a stored answer known exact for ``config``.

    Only the subspec is decoded from the stored answer (the payload
    itself is returned as its stored text); rebuilding the full
    Explanation -- seed encode, simplified and projected terms -- would
    dominate the cached-hit path for nothing.  Audited batches still
    audit the answer (the verdict is store-cached, so warm replays are
    free).
    """
    obs.metrics.count("farm.cache.full_hit")
    cached = StoredPayload(answer_text)
    audit = (
        run_audit(
            config, specification, job, options, store, key, cached, obs,
            sketch=sketch, holes=holes,
        )
        if options.audit
        else None
    )
    return JobResult(
        job=job, key=key, status=STATUS_CACHED, cached=True, duration_s=0.0,
        subspec=subspec_from_dict(cached["subspec"]).render(),
        explanation=cached, audit=audit,
    )


def run_job(
    config: NetworkConfig,
    specification: Specification,
    job: ExplainJob,
    options: Optional[FarmOptions] = None,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    budget: Optional[int] = None,
    attempt: int = 1,
    chaos: Optional[ChaosPlan] = None,
    shared: Optional[SharedCaches] = None,
    entry_memo: Optional[dict] = None,
) -> JobResult:
    """Answer one job, consulting and feeding the artifact store.

    ``shared`` threads a worker-process :class:`SharedCaches` through
    the engine (family dispatch passes it); it is dropped whenever a
    governor is in play -- sharing under a deadline or budget would let
    one job's spend change another's answer.  ``entry_memo`` is the
    family's read-set entry memo (see :class:`TransferRecorder`); it
    only saves serialization work, so it is shared governed or not.
    """
    global _JOB_ORDINAL
    _JOB_ORDINAL += 1
    ordinal = _JOB_ORDINAL
    if options is None:
        options = FarmOptions()
    started = time.perf_counter()
    obs = Instrumentation()
    store = _store_for(cache_dir) if cache_dir is not None else None
    # Resident handles accumulate stats across jobs; report only this
    # job's delta so the counters match a fresh handle's.
    stats_before = dict(store.stats) if store is not None else {}

    def finish(result: JobResult) -> JobResult:
        result.duration_s = time.perf_counter() - started
        if store is not None:
            for name, value in sorted(store.stats.items()):
                delta = value - stats_before.get(name, 0)
                if delta > 0:
                    obs.metrics.count(f"farm.store.{name}", delta)
        obs.metrics.count(f"farm.jobs.{result.status}")
        result.metrics = obs.metrics
        return result

    try:
        _apply_pickup_chaos(chaos, job.job_id, ordinal, attempt)
        sketch, holes = job.symbolize(config)
        key = job_key(config, specification, job, options, holes=holes)
    except Exception as exc:
        return finish(
            JobResult(
                job=job, key=None, status=STATUS_ERROR, cached=False,
                duration_s=0.0, error=f"{type(exc).__name__}: {exc}",
                error_kind=error_kind(exc),
            )
        )

    try:
        if store is not None:
            answer_text = store.load_text(key, "explanation")
            head = store.load(key, READSET_STAGE)
            if answer_text is not None and head is not None:
                universe = _sketch_universe_of(sketch)
                load_entries = partial(store.load, key, ENTRIES_STAGE)
                if readset_valid(head, config, universe, load_entries):
                    return finish(
                        cached_result(
                            config, specification, job, options, store,
                            key, answer_text, obs, sketch=sketch,
                            holes=holes,
                        )
                    )
                obs.metrics.count("farm.cache.invalidated")

        recorder = TransferRecorder(job.device, memo=entry_memo)
        governor = (
            Governor.of(timeout=timeout, budget=budget)
            if timeout is not None or budget is not None
            else None
        )
        engine = ExplanationEngine(
            config,
            specification,
            max_path_length=options.max_path_length,
            projection_limit=options.projection_limit,
            ibgp=options.ibgp,
            governor=governor,
            obs=obs,
            recorder=recorder,
            shared=shared if governor is None else None,
        )
        explanation = job.run(engine)
        payload = _answer_payload(explanation)
        answer: Mapping[str, Any] = payload
        if store is not None and explanation.status is ExplanationStatus.EXACT:
            answer = StoredPayload(store.save(key, "explanation", payload))
            universe = _sketch_universe_of(sketch)
            head, entries = recorder.payload(config, universe)
            # Entries first: a head on disk implies its entries were
            # written (a missing entries artifact still reads as dirty).
            store.save(key, ENTRIES_STAGE, entries)
            store.save(key, READSET_STAGE, head)
            _apply_corrupt_chaos(chaos, store, job.job_id, key, ordinal, attempt)
        audit = (
            run_audit(
                config, specification, job, options, store, key, payload,
                obs, sketch=sketch, holes=holes,
            )
            if options.audit
            and explanation.status is ExplanationStatus.EXACT
            else None
        )
        return finish(
            JobResult(
                job=job, key=key, status=explanation.status.value,
                cached=False, duration_s=0.0,
                subspec=explanation.subspec.render(),
                error=explanation.degradation,
                explanation=answer,
                audit=audit,
            )
        )
    except Exception as exc:
        return finish(
            JobResult(
                job=job, key=key, status=STATUS_ERROR, cached=False,
                duration_s=0.0, error=f"{type(exc).__name__}: {exc}",
                error_kind=error_kind(exc),
            )
        )


def shared_batch_key(
    config: NetworkConfig,
    specification: Specification,
    options: Optional[FarmOptions] = None,
) -> str:
    """The identity of one batch's shared caches.

    Covers everything a :class:`SharedCaches` instance bakes in: the
    full rendered configuration (shared seeds and simulations read all
    of it, unlike per-job keys), the specification, and the engine
    options.  Worker processes key their cache slot by it, so a process
    reused across different batches (or a configuration edit between
    incremental runs) can never serve stale shared state.
    """
    if options is None:
        options = FarmOptions()
    return digest(
        {
            "schema": SHARED_KEY_SCHEMA,
            "config": render_network(config),
            "specification": format_specification(specification),
            "managed": sorted(specification.managed),
            "options": options.payload(),
        }
    )


class _ResidentState(threading.local):
    """Per-thread resident state: the shared-cache slot and open
    :class:`ArtifactStore` handles.

    Thread-local rather than module-global because the serving layer
    now runs several in-process serial batches concurrently (one
    batch-runner thread each); a shared slot would race.  Fleet worker
    processes run their loop on one thread, so residency across
    batches is unchanged there -- and the serve queue keeps its runner
    threads alive across batches for the same reason.
    """

    def __init__(self) -> None:
        self.shared_key: Optional[str] = None
        self.shared: Optional[SharedCaches] = None
        self.stores: Dict[str, ArtifactStore] = {}


_RESIDENT = _ResidentState()

#: Process-local residency counters, shipped out of band by fleet
#: workers (never through :class:`JobResult` metrics: report documents
#: must stay byte-identical whether or not a fleet served them).
_RESIDENCY_LOCK = threading.Lock()
_RESIDENCY: Dict[str, int] = {}


def _note_residency(name: str, value: int = 1) -> None:
    with _RESIDENCY_LOCK:
        _RESIDENCY[name] = _RESIDENCY.get(name, 0) + value


def take_residency_stats() -> Dict[str, int]:
    """Drain this process's residency counters (fleet workers call
    this after every task and ship the deltas with the result)."""
    with _RESIDENCY_LOCK:
        stats = dict(_RESIDENCY)
        _RESIDENCY.clear()
    return stats


def reset_shared_slot() -> None:
    """Drop this thread's resident slot (shared caches + store handles).

    Serial batches run in the caller's own thread, so the slot -- and
    with every memoized seed encode and simulation -- survives from one
    batch to the next.  Cold measurements (the ``perline`` bench) and
    tests that assert on fresh-cache counters call this first.
    """
    _RESIDENT.shared_key = None
    _RESIDENT.shared = None
    _RESIDENT.stores = {}


#: Hot-artifact capacity of resident store handles: how many payloads
#: a long-lived worker keeps in memory so repeat loads skip the
#: filesystem.  Measured on a cold per-line fill of the four case
#: studies (82 jobs), an answer averages ~59 KB of canonical JSON and a
#: ``readset-entries`` artifact ~72 KB, so a full cache holds ~15-18 MB
#: per fleet worker.
_RESIDENT_HOT_ARTIFACTS = 256

#: Effective hot-store capacity for *this* process; 0 everywhere except
#: fleet worker processes (see :func:`enable_hot_stores`).
_hot_store_capacity = 0


def enable_hot_stores(capacity: int = _RESIDENT_HOT_ARTIFACTS) -> None:
    """Turn on the hot-artifact cache for this process's store handles.

    Only fleet worker processes call this (at loop start): they are
    the sole owners of their cache reads, so serving repeat loads from
    memory is safe.  Everywhere else -- the CLI, the serve process, the
    test runner -- the cache stays off so that on-disk mutation between
    calls (a corrupted or pruned artifact) is observed immediately.
    """
    global _hot_store_capacity
    _hot_store_capacity = max(0, capacity)


def _store_for(cache_dir: str) -> ArtifactStore:
    """The resident store handle for ``cache_dir``.

    Handles persist across jobs and batches (with an in-memory
    hot-artifact cache in fleet workers, see :class:`ArtifactStore`);
    per-job stats are taken as deltas against a pre-job snapshot (see
    :func:`run_job`), so the reported counters match what a fresh
    handle would have shown.
    """
    store = _RESIDENT.stores.get(cache_dir)
    if store is None:
        store = ArtifactStore(cache_dir, hot_artifacts=_hot_store_capacity)
        _RESIDENT.stores[cache_dir] = store
        _note_residency("store_opens")
    else:
        _note_residency("store_resident_hits")
    return store


def _shared_for(
    key: str,
    config: NetworkConfig,
    specification: Specification,
    options: FarmOptions,
) -> SharedCaches:
    if _RESIDENT.shared is None or key != _RESIDENT.shared_key:
        _RESIDENT.shared = SharedCaches(
            config,
            specification,
            max_path_length=options.max_path_length,
            projection_limit=options.projection_limit,
            ibgp=options.ibgp,
        )
        _RESIDENT.shared_key = key
        _note_residency("shared_rebuilds")
    else:
        _note_residency("shared_warm_hits")
    return _RESIDENT.shared


def run_family(
    config: NetworkConfig,
    specification: Specification,
    jobs: Sequence[ExplainJob],
    options: Optional[FarmOptions] = None,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    budgets: Optional[Sequence[Optional[int]]] = None,
    attempts: Optional[Sequence[int]] = None,
    chaos: Optional[ChaosPlan] = None,
    shared_key: Optional[str] = None,
) -> List[JobResult]:
    """Answer one family's jobs in a single worker process.

    Members run back to back against one :class:`SharedCaches`, so the
    family's seed encode, simulations and statement terms are built
    once and reused.  Sharing is only enabled for ungoverned runs (no
    ``timeout``, no per-job budget) *and* when the caller supplies the
    batch's ``shared_key``; otherwise members run exactly as
    individually dispatched jobs.  Members always share one read-set
    entry memo, which only skips re-serializing transfers a sibling
    already recorded.  Per-job cache keys, stores and read-sets are
    untouched either way -- a family is a dispatch unit, never a cache
    unit.
    """
    if options is None:
        options = FarmOptions()
    budget_list: List[Optional[int]] = (
        list(budgets) if budgets is not None else [None] * len(jobs)
    )
    attempt_list: List[int] = (
        list(attempts) if attempts is not None else [1] * len(jobs)
    )
    shared: Optional[SharedCaches] = None
    if (
        shared_key is not None
        and timeout is None
        and all(budget is None for budget in budget_list)
    ):
        shared = _shared_for(shared_key, config, specification, options)
    # Family-scoped on purpose: it dies with the family, so a
    # long-lived worker's memory stays flat.
    entry_memo: dict = {}
    results: List[JobResult] = []
    for job, budget, attempt in zip(jobs, budget_list, attempt_list):
        results.append(
            run_job(
                config, specification, job, options=options,
                cache_dir=cache_dir, timeout=timeout, budget=budget,
                attempt=attempt, chaos=chaos, shared=shared,
                entry_memo=entry_memo,
            )
        )
    if results:
        results[0].metrics.count("farm.families")
    return results
