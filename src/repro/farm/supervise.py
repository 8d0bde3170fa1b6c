"""The batch executor: every batch, treating worker death as routine.

:class:`Supervisor` is the one way a batch runs -- the CLI's
``explain-all``, the serving layer and ``since`` (incremental)
requests all go through it.  Its contract is the serving layer's
prerequisite: *a batch completes, and reports every job exactly once,
no matter what the processes under it do.*  The per-job state machine::

      dispatch ──────────► running ──────────► settled (EXACT / CACHED /
         ▲                   │                          DEGRADED / FAILED
         │                   │ worker crash,            / permanent ERROR)
         │                   │ hang past --hang-timeout,
         │                   │ transient ERROR
         │                   ▼
         │ backoff      failed attempt
         └──────────────── retry? ── attempts exhausted ──► QUARANTINED
                                                            (ledger entry)

* **Watchdog** -- units are dispatched with ``as_completed`` semantics
  and a per-unit wall clock.  An attempt running past ``hang_timeout``
  (times its unit's size) is declared hung: its worker is terminated
  and the attempt counts as a transient failure.  Innocent in-flight
  siblings never lose an attempt to it; where units run (below)
  decides whether they are re-dispatched or keep running.
* **Retry** -- transient failures (worker killed, broken pool,
  injected chaos faults, I/O hiccups; see
  :func:`repro.runtime.error_kind`) are retried with capped
  exponential backoff plus deterministic jitter derived from the job
  id, so schedules are reproducible.  Permanent failures -- an
  unsatisfiable question, an exhausted budget, a symbolization error
  -- fail fast: re-asking cannot change the answer.
* **Quarantine** -- a job that fails ``max_retries + 1`` attempts is
  quarantined: the batch completes without it, the report carries a
  ``QUARANTINED`` row with the attempt count, and the full error
  chain is appended to the ``quarantine.json`` ledger in the artifact
  store.  ``max_quarantine`` bounds how much of a batch may be lost
  before the run aborts loudly.
* **Resume** -- every settled job is journaled to an append-only,
  fsync'd run journal keyed by a batch signature (config, spec, jobs,
  options, limits).  A SIGKILL'd batch re-run with ``resume=True``
  replays the journal and re-dispatches only unfinished jobs; replayed
  results are byte-identical to what the killed run computed, and a
  torn final line (the crash landed mid-write) is ignored.
* **Incremental** -- given the configuration a batch was last run
  against (``since``), jobs whose stored read-set replays cleanly
  against the new one (:func:`repro.farm.invalidate.compute_dirty`)
  settle straight from the store, like replayed jobs; only the dirty
  rest is dispatched.

Where dispatched units run is decided by what the caller lends.
:meth:`Supervisor._drive` is the one dispatch loop for every place,
and a small class per place states the four ways they differ:

* **In-process** (no fleet, ``workers`` == 1, :class:`_InProcess`) --
  one unit at a time, run synchronously in the calling thread.  No
  watchdog: without a process boundary a hang cannot be interrupted.
  An exception escaping ``run_family`` propagates out of
  :meth:`Supervisor.run`; it is not a crash to retry.
* **Per-batch pool** (no fleet, ``workers`` > 1, :class:`_Pool`) -- up
  to ``workers`` units in flight; the hang clock starts at dispatch.
  One dead child breaks a :class:`ProcessPoolExecutor`, so a crash or
  hang abandons the pool (processes terminated), re-dispatches the
  innocent in-flight units ahead of the rest at their current attempt
  numbers, and builds a fresh pool (``farm.supervise.pool_rebuild``).
  Shutdown waits for the pool, or abandons it when the batch aborts
  mid-flight.
* **Lent fleet** (:class:`~repro.farm.fleet.WorkerFleet`,
  :class:`_Fleet`) -- every ready unit is queued fleet-side at once on
  the batch's stream, and the stream's claim cap (``workers``) bounds
  how many run, so one batch cannot monopolize a shared fleet.  The
  hang clock starts when a worker *claims* the unit, so fleet queue
  wait never counts.  A crash fails only the unit its worker held (the
  fleet replaces the process) and a hang terminates only the worker
  holding it (:meth:`WorkerFleet.kill_task`); other units keep running.
  Shutdown disowns the batch's futures: the fleet outlives the batch.

The pool stays beside the fleet because it starts much faster (forked
children answer their first task in ~10 ms; a spawned two-worker fleet
takes ~0.5 s), and a one-off batch has no warm state to keep.

Duplicate execution is safe by construction: workers only write
content-addressed artifacts atomically, so an abandoned attempt that
limps to completion in a dying pool changes nothing the re-dispatched
attempt would not also write.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from ..bgp.config import NetworkConfig
from ..bgp.render import render_network
from ..obs import Instrumentation, MetricsRegistry
from ..runtime import ChaosPlan, ReproError, TRANSIENT, split_budget
from ..spec.ast import Specification
from ..spec.printer import format_specification
from .fleet import WorkerFleet
from .invalidate import compute_dirty
from .job import ExplainJob, group_families, member_indices
from .keys import FarmOptions, canonical_json, digest
from .pool import BatchReport, _merge_metrics
from .store import ArtifactStore, StoredPayload
from .report import OK_STATUSES
from .worker import (
    JobResult,
    STATUS_CACHED,
    STATUS_ERROR,
    STATUS_QUARANTINED,
    cached_result,
    run_family,
    shared_batch_key,
)

__all__ = [
    "JOURNAL_SCHEMA",
    "RunJournal",
    "SupervisePolicy",
    "Supervisor",
    "backoff_delay",
    "batch_signature",
    "run_supervised",
]

JOURNAL_SCHEMA = "repro-farm-journal/2"

#: Group-commit window for journal fsync: records are written and
#: flushed per settled job (process-crash safe either way), but pay an
#: fsync -- the machine-failure guard -- at most this often.
_JOURNAL_SYNC_S = 0.5

#: How long the dispatch loop waits on in-flight futures per iteration;
#: bounds watchdog latency without busy-waiting.
_TICK_S = 0.05

#: Process-wide source of unique fleet stream names (one per batch).
_STREAM_SERIAL = itertools.count(1)


@dataclass(frozen=True)
class SupervisePolicy:
    """The supervisor's knobs (the CLI's ``--retries`` family)."""

    #: Retries *beyond* the first attempt; a job consumes at most
    #: ``max_retries + 1`` attempts before quarantine.
    max_retries: int = 2
    #: First backoff delay in seconds; attempt N waits
    #: ``base * 2**(N-1)`` (jittered, capped).  Zero disables sleeping.
    backoff_base: float = 0.1
    #: Upper bound on any single backoff delay.
    backoff_cap: float = 5.0
    #: Wall-clock seconds an attempt may run before the watchdog
    #: declares it hung; ``None`` disables the watchdog.
    hang_timeout: Optional[float] = None
    #: Abort the batch once more than this many jobs are quarantined;
    #: ``None`` never aborts.
    max_quarantine: Optional[int] = None
    #: Replay the run journal and skip already-settled jobs.
    resume: bool = False
    #: Deterministic process-level fault injection (tests / chaos CI).
    chaos: Optional[ChaosPlan] = None


def backoff_delay(
    base: float, cap: float, job_id: str, attempt: int
) -> float:
    """Capped exponential backoff with deterministic jitter.

    The jitter factor (0..25% extra) is derived from a hash of the job
    id and attempt number, so concurrent retries de-synchronize without
    making any schedule random: the same batch replays identically.
    """
    if base <= 0:
        return 0.0
    seed = hashlib.sha256(f"{job_id}:{attempt}".encode("utf-8")).hexdigest()
    jitter = int(seed[:8], 16) / 0xFFFFFFFF
    return min(cap, base * (2 ** (attempt - 1)) * (1.0 + 0.25 * jitter))


def batch_signature(
    config: NetworkConfig,
    specification: Specification,
    jobs: List[ExplainJob],
    options: FarmOptions,
    timeout: Optional[float] = None,
    budget: Optional[int] = None,
) -> str:
    """The identity of a batch for journaling purposes.

    Everything that pins the batch's *answers* participates -- config,
    specification, job list, engine options and the governed limits --
    so a resumed run can only ever be completed with results the
    crashed run would itself have produced.  The audit knobs join only
    when auditing is on: an audited batch must not resume from (or be
    resumed by) an unaudited journal, while non-audit signatures stay
    byte-identical to what they were before the audit stage existed.
    """
    payload = {
        "schema": JOURNAL_SCHEMA,
        "config": render_network(config),
        "spec": format_specification(specification),
        "managed": sorted(specification.managed),
        "jobs": [job.payload() for job in jobs],
        "options": options.payload(),
        "timeout": timeout,
        "budget": budget,
    }
    if options.audit:
        payload["audit"] = options.audit_payload()
    return digest(payload)


# ---------------------------------------------------------------------------
# The crash-safe run journal


def _result_payload(result: JobResult) -> Dict[str, object]:
    """The journaled form of a settled job (metrics excluded).

    Durable answers -- EXACT results the worker just persisted and
    CACHED results that came from the store -- are journaled as a
    reference (``"stored": true``, no inline explanation): the
    artifact store already holds the payload content-addressed by the
    job key, and re-encoding every explanation into the journal once
    per settled job dominated journal cost.  Replay loads the payload
    back from the store; a missing or corrupt artifact simply re-runs
    the job, exactly like a lost journal window.
    """
    stored = (
        result.explanation is not None
        and result.key is not None
        and result.status in OK_STATUSES
    )
    payload = {
        "job": result.job.payload(),
        "key": result.key,
        "status": result.status,
        "cached": result.cached,
        "duration_s": result.duration_s,
        "subspec": result.subspec,
        "error": result.error,
        "error_kind": result.error_kind,
        "attempts": result.attempts,
        "quarantined": result.quarantined,
        "stored": stored,
        "explanation": None if stored else result.explanation,
    }
    # Audit verdicts are small and journaled inline (only when present,
    # so non-audit journal bytes are untouched); replay restores them
    # without re-running the suite.
    if result.audit is not None:
        payload["audit"] = result.audit
    return payload


def _result_from_payload(
    payload: Dict[str, object], store: Optional[ArtifactStore]
) -> Optional[JobResult]:
    """Rebuild one journaled result (``None`` when unrecoverable).

    A ``"stored": true`` record carries no inline explanation; the
    payload is reloaded from the artifact store by job key.  A missing
    store or evicted artifact yields ``None`` -- the caller treats the
    job as never settled and re-runs it.
    """
    explanation = payload.get("explanation")
    key = payload.get("key")
    if payload.get("stored"):
        if store is None or not isinstance(key, str):
            return None
        text = store.load_text(key, "explanation")
        if text is None:
            return None
        explanation = StoredPayload(text)
    job_fields = dict(payload["job"])  # type: ignore[arg-type]
    job_fields["fields"] = tuple(job_fields.get("fields") or ())
    return JobResult(
        job=ExplainJob(**job_fields),
        key=key,  # type: ignore[arg-type]
        status=str(payload["status"]),
        cached=bool(payload.get("cached")),
        duration_s=float(payload.get("duration_s") or 0.0),
        subspec=str(payload.get("subspec") or ""),
        error=payload.get("error"),  # type: ignore[arg-type]
        error_kind=payload.get("error_kind"),  # type: ignore[arg-type]
        attempts=int(payload.get("attempts") or 1),
        quarantined=bool(payload.get("quarantined")),
        explanation=explanation,  # type: ignore[arg-type]
        audit=payload.get("audit"),  # type: ignore[arg-type]
    )


class RunJournal:
    """An append-only record of settled jobs.

    Layout: ``<cache_dir>/journal/<signature>.jsonl`` -- a header line
    naming the schema and batch signature, then one line per settled
    job.  Each line is flushed before the supervisor moves on (fsync
    is group-committed, see :meth:`_write`), so after SIGKILL the
    journal is a valid prefix of the run plus at most one torn line,
    which replay ignores.
    """

    def __init__(self, cache_dir: str, signature: str) -> None:
        self.signature = signature
        self.path = os.path.join(cache_dir, "journal", f"{signature}.jsonl")
        self._handle = None
        self._last_sync = 0.0

    # -- replay ---------------------------------------------------------

    def replay(
        self, store: Optional[ArtifactStore] = None
    ) -> Dict[str, JobResult]:
        """job id -> settled result from a prior (possibly killed) run.

        An absent journal, a schema/signature mismatch, or a corrupt
        header all replay to "nothing done"; a torn or garbled line
        ends the replay at the last intact record.  ``store`` resolves
        ``"stored": true`` records (durable answers journaled by
        reference); a record whose artifact is gone is skipped, which
        re-runs that job.
        """
        try:
            with open(self.path, "r", encoding="ascii") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return {}
        if not lines:
            return {}
        try:
            header = json.loads(lines[0])
        except ValueError:
            return {}
        if (
            not isinstance(header, dict)
            or header.get("schema") != JOURNAL_SCHEMA
            or header.get("batch") != self.signature
        ):
            return {}
        results: Dict[str, JobResult] = {}
        for line in lines[1:]:
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "done" not in record:
                    break
                result = _result_from_payload(record["done"], store)
            except (ValueError, KeyError, TypeError):
                break  # torn tail: the crash landed mid-write
            if result is not None:
                results[result.job.job_id] = result
        return results

    # -- writing --------------------------------------------------------

    def start(self, fresh: bool) -> None:
        """Open for appending; ``fresh`` truncates and re-headers."""
        try:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            exists = os.path.exists(self.path) and not fresh
            if exists:
                self._trim_torn_tail()
            self._handle = open(
                self.path, "a" if exists else "w", encoding="ascii"
            )
            if not exists:
                self._write(
                    {"schema": JOURNAL_SCHEMA, "batch": self.signature}
                )
        except OSError:
            self._handle = None  # unwritable cache: run without a journal

    def _trim_torn_tail(self) -> None:
        """Cut the journal back to its last intact line.

        Appending after a crash must not glue the first new record onto
        the torn line the crash left behind -- that would garble a
        *settled* record, not just the tail.
        """
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return
        good = 0
        for line in raw.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break
            try:
                json.loads(line.decode("ascii"))
            except (ValueError, UnicodeDecodeError):
                break
            good += len(line)
        if good < len(raw):
            try:
                with open(self.path, "r+b") as handle:
                    handle.truncate(good)
            except OSError:
                pass

    def record(self, result: JobResult) -> None:
        self._write({"done": _result_payload(result)})

    def _write(self, record: Dict[str, object]) -> None:
        """Append one record: write-through, group-committed fsync.

        Every record is written and flushed immediately, so a crash of
        *this process* loses nothing (the data is in the page cache).
        ``fsync`` -- which only guards against kernel or power failure
        -- is group-committed to at most one per
        :data:`_JOURNAL_SYNC_S`, instead of once per settled job; the
        worst case is a machine-level failure forgetting the last
        window of settled jobs, which ``resume`` simply re-runs.
        """
        if self._handle is None:
            return
        try:
            self._handle.write(canonical_json(record) + "\n")
            self._handle.flush()
            now = time.monotonic()
            if now - self._last_sync >= _JOURNAL_SYNC_S:
                os.fsync(self._handle.fileno())
                self._last_sync = now
        except (OSError, ValueError):
            self._handle = None

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except (OSError, ValueError):
                pass
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


# ---------------------------------------------------------------------------
# The supervisor


@dataclass
class _Attempt:
    """One dispatch of one job."""

    index: int
    job: ExplainJob
    attempt: int = 1
    #: Monotonic time before which the attempt must not be dispatched
    #: (backoff); 0.0 dispatches immediately.
    ready_at: float = 0.0
    #: Monotonic dispatch time of the running attempt (the pool's hang
    #: clock).
    started: float = field(default=0.0, compare=False)


#: The supervisor's dispatch unit: the attempts of one job family,
#: shipped to one worker together.  First dispatch groups whole
#: families; every retry is a singleton unit (a failed member must not
#: drag its innocent siblings through another attempt).
_Unit = List[_Attempt]


class Supervisor:
    """Run one batch to completion despite worker death and hangs."""

    def __init__(
        self,
        config: NetworkConfig,
        specification: Specification,
        jobs: List[ExplainJob],
        options: Optional[FarmOptions] = None,
        cache_dir: Optional[str] = None,
        workers: int = 1,
        timeout: Optional[float] = None,
        budget: Optional[int] = None,
        scenario: str = "batch",
        policy: Optional[SupervisePolicy] = None,
        share: bool = True,
        progress: Optional[Callable[[JobResult], None]] = None,
        stop: Optional[threading.Event] = None,
        fleet: Optional[WorkerFleet] = None,
        since: Optional[NetworkConfig] = None,
    ) -> None:
        if since is not None and cache_dir is None:
            raise ValueError("incremental runs need a cache directory")
        self.config = config
        self.specification = specification
        self.jobs = list(jobs)
        self.options = options if options is not None else FarmOptions()
        self.cache_dir = cache_dir
        self.workers = max(1, workers)
        self.timeout = timeout
        self.budget = budget
        self.scenario = scenario
        self.policy = policy if policy is not None else SupervisePolicy()
        self.share = share
        #: Long-lived-process seams (the serving layer): ``progress``
        #: is called in the supervisor's thread after each job settles
        #: (journaled result in hand); ``stop`` set mid-run drains the
        #: batch -- in-flight families finish and are journaled,
        #: everything still waiting is left unsettled for ``--resume``.
        self.progress = progress
        self.stop = stop
        #: A long-lived :class:`WorkerFleet` to borrow workers from
        #: instead of building a per-batch pool; ``workers`` caps this
        #: batch's simultaneous claims on it (see :class:`_Fleet`).
        self.fleet = fleet
        #: The configuration the cache was last filled against; jobs
        #: its edit left clean settle from the store undispatched.
        self.since = since
        self._stream = f"batch-{next(_STREAM_SERIAL)}"
        #: Identity of the batch's worker-side shared caches; ``None``
        #: disables sharing (explicitly, or because the run is
        #: governed -- see :func:`repro.farm.worker.run_family`).
        self._shared_key = (
            shared_batch_key(config, specification, self.options)
            if share and timeout is None and budget is None
            else None
        )
        if (
            self.workers <= 1
            and fleet is None
            and self.policy.chaos is not None
            and self.policy.chaos.needs_process_isolation
        ):
            raise ValueError(
                "chaos kill/hang events need a process pool (workers >= 2) "
                "or a worker fleet"
            )
        self.metrics = MetricsRegistry()
        #: job id -> per-attempt error chain (for the quarantine ledger).
        self.errors: Dict[str, List[Dict[str, object]]] = {}

    # -- public entry ---------------------------------------------------

    def run(self) -> BatchReport:
        started = time.perf_counter()
        shares = split_budget(self.budget, len(self.jobs)) if self.jobs else None
        store = (
            ArtifactStore(self.cache_dir) if self.cache_dir is not None else None
        )
        results: Dict[int, JobResult] = {}
        journal: Optional[RunJournal] = None
        if self.cache_dir is not None:
            signature = batch_signature(
                self.config, self.specification, self.jobs, self.options,
                timeout=self.timeout, budget=self.budget,
            )
            journal = RunJournal(self.cache_dir, signature)
            if self.policy.resume:
                replayed = journal.replay(store)
                for index, job in enumerate(self.jobs):
                    done = replayed.get(job.job_id)
                    if done is not None:
                        results[index] = done
                        self.metrics.count("farm.supervise.resumed")
            journal.start(fresh=not results)
        if self.since is not None:
            assert store is not None
            self._settle_clean(results, journal, store)
        pending = self._units(results)
        try:
            self._drive(pending, shares, results, journal, store)
        finally:
            if journal is not None:
                journal.close()
        report = BatchReport(
            scenario=self.scenario,
            results=[results[index] for index in sorted(results)],
            workers=self.workers,
            wall_s=time.perf_counter() - started,
        )
        _merge_metrics(report)
        report.metrics.merge(self.metrics)
        return report

    # -- shared settle/fail machinery -----------------------------------

    def _settle_clean(
        self,
        results: Dict[int, JobResult],
        journal: Optional[RunJournal],
        store: ArtifactStore,
    ) -> None:
        """Settle every unsettled job the ``since`` edit left clean.

        A clean job's key is unchanged and its stored read-set replays
        cleanly against the new configuration, so its stored answer is
        exact: it settles as a ``CACHED`` row (audited when the batch
        audits), journaled and reported like any other settled job.
        """
        assert self.since is not None
        unsettled = [
            (index, job)
            for index, job in enumerate(self.jobs)
            if index not in results
        ]
        dirty, clean = compute_dirty(
            self.since, self.config, self.specification,
            [job for _, job in unsettled], self.options, store,
        )
        self.metrics.count("farm.incremental.dirty", len(dirty))
        self.metrics.count("farm.incremental.clean", len(clean))
        for index, job in unsettled:
            key = clean.get(job)
            if key is None:
                continue  # dirty: dispatched below
            text = store.load_text(key, "explanation")
            if text is None:
                continue  # gone since compute_dirty read it: re-run
            obs = Instrumentation()
            result = cached_result(
                self.config, self.specification, job, self.options, store,
                key, text, obs,
            )
            obs.metrics.count(f"farm.jobs.{STATUS_CACHED}")
            result.metrics = obs.metrics
            self._record(index, result, results, journal)

    def _units(self, results: Dict[int, JobResult]) -> List[_Unit]:
        """Group unsettled jobs into first-dispatch units.

        Whole families with ``share``, singletons without.  Jobs
        already settled (journal replay, or clean under ``since``) are
        dropped from their unit -- a resumed family re-dispatches only
        its unfinished members.
        """
        attempts = {
            index: _Attempt(index=index, job=job)
            for index, job in enumerate(self.jobs)
            if index not in results
        }
        if not self.share:
            return [[attempts[index]] for index in sorted(attempts)]
        families = group_families(self.jobs)
        members = member_indices(self.jobs, families)
        units: List[_Unit] = []
        for family in families:
            unit = [
                attempts[index]
                for index in members[family.index]
                if index in attempts
            ]
            if unit:
                units.append(unit)
        return units

    def _settle(
        self,
        att: _Attempt,
        result: JobResult,
        now: float,
        requeue,
        results: Dict[int, JobResult],
        journal: Optional[RunJournal],
        store: Optional[ArtifactStore],
    ) -> None:
        """Fold one finished attempt into the batch state."""
        if result.status == STATUS_ERROR and result.error_kind == TRANSIENT:
            self._fail(
                att, result.error or "transient failure", now, requeue,
                results, journal, store, key=result.key,
            )
            return
        result.attempts = att.attempt
        self._record(att.index, result, results, journal)

    def _record(
        self,
        index: int,
        result: JobResult,
        results: Dict[int, JobResult],
        journal: Optional[RunJournal],
    ) -> None:
        """Settle one job: keep, journal and report its result."""
        results[index] = result
        if journal is not None:
            journal.record(result)
        if self.progress is not None:
            self.progress(result)

    def _fail(
        self,
        att: _Attempt,
        error_text: str,
        now: float,
        requeue,
        results: Dict[int, JobResult],
        journal: Optional[RunJournal],
        store: Optional[ArtifactStore],
        key: Optional[str] = None,
    ) -> None:
        """One transient failure: schedule a retry or quarantine."""
        chain = self.errors.setdefault(att.job.job_id, [])
        chain.append(
            {"attempt": att.attempt, "error": error_text, "kind": TRANSIENT}
        )
        if att.attempt <= self.policy.max_retries:
            self.metrics.count("farm.supervise.retry")
            delay = backoff_delay(
                self.policy.backoff_base, self.policy.backoff_cap,
                att.job.job_id, att.attempt,
            )
            requeue(
                replace(att, attempt=att.attempt + 1, ready_at=now + delay)
            )
            return
        self.metrics.count("farm.supervise.quarantine")
        result = JobResult(
            job=att.job, key=key, status=STATUS_QUARANTINED, cached=False,
            duration_s=0.0, error=error_text, error_kind=TRANSIENT,
            attempts=att.attempt, quarantined=True,
        )
        if store is not None:
            store.quarantine_add(
                {
                    "job": att.job.job_id,
                    "key": key,
                    "attempts": att.attempt,
                    "errors": chain,
                }
            )
        self._record(att.index, result, results, journal)
        quarantined = sum(1 for r in results.values() if r.quarantined)
        limit = self.policy.max_quarantine
        if limit is not None and quarantined > limit:
            raise ReproError(
                f"quarantine limit exceeded: {quarantined} jobs quarantined "
                f"(--max-quarantine {limit})"
            )

    # -- the dispatch loop ----------------------------------------------

    def _place(self) -> Union[_InProcess, _Pool, _Fleet]:
        """Where this batch's units run: what the caller lends decides."""
        if self.fleet is not None:
            return _Fleet(self.fleet, self._stream, self.workers)
        if self.workers <= 1:
            return _InProcess()
        return _Pool(self.workers, self.metrics)

    def _drive(self, pending, shares, results, journal, store) -> None:
        """Dispatch, wait, settle and retry until every unit is settled.

        The one loop for every place a unit can run; what differs
        between places (how deep to dispatch, the hang clock, crash
        and hang recovery, shutdown) is asked of ``place``.
        """
        place = self._place()
        waiting: Deque[_Unit] = deque(pending)
        backoff: List[_Attempt] = []
        inflight: Dict[Future, _Unit] = {}
        hang_timeout = self.policy.hang_timeout
        try:
            while waiting or backoff or inflight:
                stopping = self.stop is not None and self.stop.is_set()
                if stopping and (waiting or backoff):
                    # Drain (serving-layer SIGTERM): in-flight families
                    # run to completion (and are journaled below);
                    # everything not yet dispatched -- including pending
                    # retries -- is left unsettled for a later --resume.
                    self.metrics.count(
                        "farm.supervise.drained",
                        sum(len(unit) for unit in waiting) + len(backoff),
                    )
                    waiting.clear()
                    backoff = []
                    if not inflight:
                        break
                now = time.monotonic()
                due = [att for att in backoff if att.ready_at <= now]
                if due:
                    backoff = [a for a in backoff if a.ready_at > now]
                    waiting.extend(
                        [att] for att in sorted(due, key=lambda a: a.index)
                    )
                while waiting and (
                    place.depth is None or len(inflight) < place.depth
                ):
                    unit = waiting.popleft()
                    started = time.monotonic()
                    for att in unit:
                        att.started = started
                    inflight[place.submit(self._call(unit, shares))] = unit
                if not inflight:
                    next_ready = min(att.ready_at for att in backoff)
                    time.sleep(max(0.0, min(next_ready - now, _TICK_S)))
                    continue
                done, _ = wait(
                    set(inflight), timeout=_TICK_S,
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                crashed: List[Tuple[_Unit, BaseException]] = []
                for future in done:
                    unit = inflight.pop(future)
                    error = future.exception()
                    if error is None:
                        for att, result in zip(unit, future.result()):
                            self._settle(
                                att, result, now, backoff.append,
                                results, journal, store,
                            )
                    else:
                        crashed.append((unit, error))
                hung: List[Future] = []
                if hang_timeout is not None:
                    for future, unit in inflight.items():
                        # A unit runs its members back to back, so its
                        # hang allowance scales with its size.
                        claimed = place.claimed_at(future, unit)
                        if (
                            claimed is not None
                            and now - claimed > hang_timeout * len(unit)
                        ):
                            hung.append(future)
                hung_units = [inflight.pop(future) for future in hung]
                if crashed or hung:
                    # Innocent in-flight units the place gives back go
                    # to the front of the queue, in dispatch order, at
                    # their *current* attempt numbers: a neighbor's
                    # death must not burn their retries.
                    innocents = place.recover(hung, inflight)
                    waiting.extendleft(reversed(innocents))
                for unit, error in crashed:
                    # The worker died under the unit: transient by
                    # definition, for every member -- a family shares
                    # its process.
                    self.metrics.count("farm.supervise.crash")
                    for att in unit:
                        self._fail(
                            att, f"{type(error).__name__}: {error}",
                            now, backoff.append, results, journal, store,
                        )
                for unit in hung_units:
                    self.metrics.count("farm.supervise.hang")
                    for att in unit:
                        self._fail(
                            att,
                            f"WorkerHang: no result within "
                            f"{hang_timeout}s (watchdog)",
                            now, backoff.append, results, journal, store,
                        )
        finally:
            place.close(inflight)

    def _call(self, unit: _Unit, shares) -> Tuple[object, ...]:
        """The ``run_family`` argument list for one unit."""
        return (
            self.config, self.specification,
            [att.job for att in unit], self.options, self.cache_dir,
            self.timeout,
            [None if shares is None else shares[att.index] for att in unit],
            [att.attempt for att in unit],
            self.policy.chaos, self._shared_key,
        )


# ---------------------------------------------------------------------------
# Where dispatched units run
#
# Each place answers the dispatch loop's four questions, and the module
# docstring states every place's answers: ``depth`` (how many units may
# be in flight; ``None`` queues every ready unit), ``claimed_at`` (when
# a unit's hang clock started; ``None`` while it is not running, or
# with no watchdog), ``recover`` (after a crash or hang: which in-flight
# units to re-dispatch) and ``close`` (shutdown; ``inflight`` holds the
# units an abort left running).


class _InProcess:
    """``workers`` == 1: one unit at a time, in the calling thread.

    The serving layer's runner threads rely on the calling thread:
    ``run_family`` reads their thread-local resident slot.
    """

    depth: Optional[int] = 1

    def submit(self, args: Tuple[object, ...]) -> Future:
        future: Future = Future()
        future.set_result(run_family(*args))
        return future

    def claimed_at(self, future: Future, unit: _Unit) -> Optional[float]:
        return None

    def recover(
        self, hung: List[Future], inflight: Dict[Future, _Unit]
    ) -> List[_Unit]:
        return []

    def close(self, inflight: Dict[Future, _Unit]) -> None:
        pass


class _Pool:
    """``workers`` > 1: a per-batch :class:`ProcessPoolExecutor`."""

    def __init__(self, workers: int, metrics: MetricsRegistry) -> None:
        self.depth: Optional[int] = workers
        self._metrics = metrics
        self._pool = ProcessPoolExecutor(max_workers=workers)

    def submit(self, args: Tuple[object, ...]) -> Future:
        return self._pool.submit(run_family, *args)

    def claimed_at(self, future: Future, unit: _Unit) -> Optional[float]:
        return unit[0].started

    def recover(
        self, hung: List[Future], inflight: Dict[Future, _Unit]
    ) -> List[_Unit]:
        innocents = list(inflight.values())
        inflight.clear()
        self._abandon()
        self._pool = ProcessPoolExecutor(max_workers=self.depth)
        self._metrics.count("farm.supervise.pool_rebuild")
        return innocents

    def close(self, inflight: Dict[Future, _Unit]) -> None:
        if inflight:
            # Aborted mid-flight (e.g. quarantine limit): do not wait
            # on workers that may be hung or dying.
            self._abandon()
        else:
            self._pool.shutdown(wait=True)

    def _abandon(self) -> None:
        """Tear the (broken or hung) pool down without waiting on it.

        ``_processes`` is private executor state, but terminating the
        children is the only way to reclaim a worker stuck in a
        non-cooperative hang; the executor object itself is abandoned
        either way, so a future stdlib rearrangement degrades this to
        "leak one hung process", never to wrong results.
        """
        processes = getattr(self._pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
        try:
            self._pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


class _Fleet:
    """A lent, long-lived :class:`WorkerFleet`, shared with other batches."""

    depth: Optional[int] = None

    def __init__(self, fleet: WorkerFleet, stream: str, cap: int) -> None:
        self._fleet = fleet
        self._stream = stream
        self._cap = cap

    def submit(self, args: Tuple[object, ...]) -> Future:
        return self._fleet.submit(
            run_family, *args, stream=self._stream, stream_cap=self._cap
        )

    def claimed_at(self, future: Future, unit: _Unit) -> Optional[float]:
        return self._fleet.started_at(future)

    def recover(
        self, hung: List[Future], inflight: Dict[Future, _Unit]
    ) -> List[_Unit]:
        for future in hung:
            self._fleet.kill_task(future)
        return []

    def close(self, inflight: Dict[Future, _Unit]) -> None:
        pass  # the fleet outlives the batch: disown the futures


def run_supervised(
    config: NetworkConfig,
    specification: Specification,
    jobs: List[ExplainJob],
    options: Optional[FarmOptions] = None,
    cache_dir: Optional[str] = None,
    workers: int = 1,
    timeout: Optional[float] = None,
    budget: Optional[int] = None,
    scenario: str = "batch",
    policy: Optional[SupervisePolicy] = None,
    share: bool = True,
    progress: Optional[Callable[[JobResult], None]] = None,
    stop: Optional[threading.Event] = None,
    fleet: Optional[WorkerFleet] = None,
    since: Optional[NetworkConfig] = None,
) -> BatchReport:
    """Answer every job under supervision; see :class:`Supervisor`."""
    return Supervisor(
        config, specification, jobs, options, cache_dir, workers,
        timeout, budget, scenario, policy, share=share,
        progress=progress, stop=stop, fleet=fleet, since=since,
    ).run()
