"""The server's job machine: fair-share queue, runners, progress events.

A :class:`ServeJob` is one submitted batch moving through
``QUEUED -> RUNNING -> DONE|FAILED|DRAINED`` (the states are defined
by :mod:`repro.api`; the HTTP layer serializes them as
:class:`repro.api.JobStatus` documents).  A :class:`JobQueue` owns the
jobs, per-tenant pending queues, and a fixed pool of runner threads
that drain them through :func:`repro.api.explain_batch`.

**Fair-share scheduling.**  Dispatch order is deficit-weighted round
robin over tenants: the scheduler rotates over tenants with queued
work, banking each tenant's :attr:`~repro.serve.tenants.TenantPolicy.weight`
per visit and dispatching one batch per whole unit of banked credit.
Within a tenant, batches stay FIFO; across tenants, a 200-batch flood
from one tenant costs everyone else at most one scheduling round of
wait, not the whole flood.  Idle tenants bank nothing, so a quiet
tenant cannot burst past its weight later.  With a single tenant (or
the default ``concurrency=1``) the schedule degenerates to the old
global FIFO exactly.

**Concurrency and the fleet.**  ``concurrency`` runner threads execute
up to that many batches at once.  Runner threads are long-lived on
purpose: in-process (serial) batches keep their per-thread resident
caches warm across batches, and fleet-backed batches multiplex onto
the shared :class:`~repro.farm.fleet.WorkerFleet` passed at
construction, so concurrent batches borrow from one warm worker pool
instead of forking a process pool each.

**Retention.**  Completed jobs (and their event logs) are evicted by
:class:`RetentionPolicy` -- a TTL since finish and/or a cap on retained
terminal jobs, oldest-finished first.  Running and queued jobs are
never evicted; for retained jobs the ``/events`` replay-from-seq
contract is untouched.

Every state change and every settled job appends a monotonically
numbered event to the job's event log and wakes waiters on the
queue-wide condition; the HTTP event stream is "replay the log from
seq N, then block for more" -- late subscribers see the full history,
and there is no per-subscriber state server-side.

Drain (SIGTERM) is cooperative and crash-safe by construction: the
stop event is threaded into every running batch's supervisor, which
stops dispatching new job families, lets in-flight families finish and
journal, and returns a partial report.  Still-queued jobs flip to
``DRAINED`` without running.  Because every settled job is journaled,
resubmitting a drained batch with ``resume=True`` replays only the
remainder (see :mod:`repro.farm.supervise`).
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from .. import api
from ..farm.fleet import WorkerFleet
from ..obs import MetricsRegistry
from .tenants import TenantBook

__all__ = ["RetentionPolicy", "ServeJob", "JobQueue"]


@dataclass(frozen=True)
class RetentionPolicy:
    """How long completed jobs (and their event logs) are retained.

    ``None`` fields disable that limit; the default policy retains
    everything forever (the pre-retention behavior).  Only terminal
    jobs -- ``DONE`` / ``FAILED`` / ``DRAINED`` -- are ever evicted.
    """

    #: Seconds after ``finished_at`` before a terminal job may be
    #: evicted.
    ttl_s: Optional[float] = None
    #: Retain at most this many terminal jobs (oldest-finished evicted
    #: first once exceeded).
    max_completed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ttl_s is not None and self.ttl_s < 0:
            raise ValueError("ttl_s must be >= 0")
        if self.max_completed is not None and self.max_completed < 0:
            raise ValueError("max_completed must be >= 0")

    @property
    def bounded(self) -> bool:
        return self.ttl_s is not None or self.max_completed is not None


class ServeJob:
    """One submitted batch and everything observable about it.

    Mutable on purpose (runners and progress callbacks write, handler
    threads read); every mutation happens under the owning queue's
    lock, and readers snapshot via :meth:`status` /
    :meth:`events_since` rather than touching fields directly.
    """

    def __init__(
        self,
        job_id: str,
        tenant: str,
        request: api.ExplainRequest,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.id = job_id
        self.tenant = tenant
        self.request = request
        self.state = api.STATE_QUEUED
        self.submitted_at = clock()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None
        self.report: Optional[api.BatchReport] = None
        self.exit_code: Optional[int] = None
        #: Settled-job tallies, updated live by the progress callback.
        self.counts: Dict[str, int] = {
            "settled": 0, "ok": 0, "degraded": 0, "failed": 0,
            "quarantined": 0, "cached": 0,
        }
        self.total = 0
        self.events: List[Dict[str, object]] = []

    # The queue calls these with its lock held. -------------------------

    def _event(self, kind: str, **payload: object) -> None:
        self.events.append({"seq": len(self.events), "event": kind, **payload})

    def _tally(self, result) -> None:
        self.counts["settled"] += 1
        if result.ok:
            self.counts["ok"] += 1
        if result.degraded:
            self.counts["degraded"] += 1
        if result.status == "ERROR":
            self.counts["failed"] += 1
        if result.quarantined:
            self.counts["quarantined"] += 1
        if result.cached:
            self.counts["cached"] += 1

    @property
    def terminal(self) -> bool:
        return self.state in (
            api.STATE_DONE, api.STATE_FAILED, api.STATE_DRAINED
        )

    # -------------------------------------------------------------------

    def status(self) -> api.JobStatus:
        """A consistent snapshot (call via :meth:`JobQueue.status`)."""
        return api.JobStatus(
            id=self.id,
            state=self.state,
            tenant=self.tenant,
            scenario=self.request.name,
            total=self.total,
            settled=self.counts["settled"],
            ok=self.counts["ok"],
            degraded=self.counts["degraded"],
            failed=self.counts["failed"],
            quarantined=self.counts["quarantined"],
            cached=self.counts["cached"],
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            error=self.error,
            exit_code=self.exit_code,
        )


class JobQueue:
    """Fair-share queue of batches plus the runner threads executing them.

    ``runner`` defaults to :func:`repro.api.explain_batch` and is
    injectable so queue tests exercise the machine without solving
    anything.  ``cache_dir`` is the server's shared artifact store:
    requests that do not opt out of caching are rewritten onto it, so
    every batch of the process hits one store.  ``tenants`` supplies
    fair-share weights (absent tenants weigh 1.0); ``fleet`` is the
    shared worker pool batches execute on (``None`` keeps the
    per-batch pool/serial paths); ``retention`` bounds how long
    finished jobs stay queryable.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        runner: Optional[Callable[..., api.BatchReport]] = None,
        tenants: Optional[TenantBook] = None,
        concurrency: int = 1,
        fleet: Optional[WorkerFleet] = None,
        retention: Optional[RetentionPolicy] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.cache_dir = cache_dir
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._runner = runner if runner is not None else api.explain_batch
        self._tenants = tenants
        self.concurrency = max(1, concurrency)
        self.fleet = fleet
        self.retention = retention if retention is not None else RetentionPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: Dict[str, ServeJob] = {}
        #: Per-tenant FIFO of queued jobs, keyed by tenant name; the
        #: rotation order is first-submission order (stable).
        self._queues: Dict[str, Deque[ServeJob]] = {}
        self._order: List[str] = []
        self._deficits: Dict[str, float] = {}
        self._cursor = 0
        #: The tenant that banked its weight for the current stop
        #: (reset whenever the rotation moves on).  A name, not a flag:
        #: a tenant joining ``_order`` can shift which tenant the
        #: cursor points at without the rotation moving.
        self._banked: Optional[str] = None
        self._stop = threading.Event()
        self._serial = 0
        self._runners = [
            threading.Thread(
                target=self._run, name=f"repro-serve-runner-{index}",
                daemon=True,
            )
            for index in range(self.concurrency)
        ]
        for thread in self._runners:
            thread.start()

    # -- submission ----------------------------------------------------

    def _shape(self, request: api.ExplainRequest) -> api.ExplainRequest:
        from dataclasses import replace

        if not request.no_cache and self.cache_dir is not None:
            if request.cache_dir != self.cache_dir:
                request = replace(request, cache_dir=self.cache_dir)
        return request

    def submit(self, request: api.ExplainRequest, tenant: str = "public") -> ServeJob:
        """Enqueue one validated request; returns its job record."""
        request = self._shape(request)
        with self._wake:
            if self._stop.is_set():
                raise RuntimeError("server is draining; not accepting work")
            self._serial += 1
            job = ServeJob(
                f"job-{self._serial:06d}", tenant, request, clock=self._clock
            )
            job._event("queued", tenant=tenant, scenario=request.name)
            self._jobs[job.id] = job
            if tenant not in self._queues:
                self._queues[tenant] = deque()
                self._order.append(tenant)
            self._queues[tenant].append(job)
            self.metrics.count("serve.jobs.submitted")
            self._evict_locked()
            self._wake.notify_all()
            return job

    # -- read side -----------------------------------------------------

    def get(self, job_id: str) -> Optional[ServeJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def status(self, job_id: str) -> Optional[api.JobStatus]:
        with self._lock:
            job = self._jobs.get(job_id)
            return job.status() if job is not None else None

    def jobs(self) -> List[api.JobStatus]:
        with self._lock:
            return [job.status() for job in self._jobs.values()]

    def events_since(
        self,
        job_id: str,
        seq: int,
        timeout: Optional[float] = None,
    ) -> List[Dict[str, object]]:
        """Events of ``job_id`` with ``seq`` and up, blocking for news.

        Returns an empty list only when the job is already terminal and
        has no events past ``seq`` (the stream's end), on timeout, or
        when the job is unknown (never submitted, or evicted by the
        retention policy).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._wake:
            job = self._jobs.get(job_id)
            if job is None:
                return []
            while True:
                if len(job.events) > seq:
                    return [dict(event) for event in job.events[seq:]]
                if job.state not in (api.STATE_QUEUED, api.STATE_RUNNING):
                    return []
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return []
                self._wake.wait(remaining)

    # -- retention -----------------------------------------------------

    def _evict_locked(self) -> None:
        """Apply the retention policy (caller holds the lock).

        Only terminal jobs are candidates; eviction order is
        oldest-finished first.  Runs on submission and completion, so
        a quiet queue retains slightly past its TTL until the next
        state change -- acceptable for a bound that exists to cap
        memory, not to redact results on a clock edge.
        """
        if not self.retention.bounded:
            return
        terminal = sorted(
            (job for job in self._jobs.values() if job.terminal),
            key=lambda job: (job.finished_at or 0.0, job.id),
        )
        doomed: List[ServeJob] = []
        if self.retention.ttl_s is not None:
            horizon = self._clock() - self.retention.ttl_s
            while terminal and (terminal[0].finished_at or 0.0) <= horizon:
                doomed.append(terminal.pop(0))
        if self.retention.max_completed is not None:
            while len(terminal) > self.retention.max_completed:
                doomed.append(terminal.pop(0))
        for job in doomed:
            del self._jobs[job.id]
            self.metrics.count("serve.jobs.evicted")

    # -- the fair-share scheduler --------------------------------------

    def _weight(self, tenant: str) -> float:
        if self._tenants is None:
            return 1.0
        return self._tenants.policy_for(tenant).weight

    def _next_locked(self) -> Optional[ServeJob]:
        """Pick the next batch by deficit-weighted round robin.

        Arriving at a tenant with queued work banks its weight once;
        one whole unit of credit buys one dispatch, and the rotation
        stays on the tenant while its credit lasts -- so a weight-3
        tenant drains three batches per stop to a weight-1 tenant's
        one.  Tenants with empty queues forfeit their bank (no credit
        accrues while idle).  Terminates because every full rotation
        banks at least ``min(weight)`` into some non-empty tenant.
        """
        if not any(self._queues[tenant] for tenant in self._order):
            return None
        while True:
            tenant = self._order[self._cursor % len(self._order)]
            queue = self._queues[tenant]
            if not queue:
                self._deficits[tenant] = 0.0
                self._cursor += 1
                self._banked = None
                continue
            if self._banked != tenant:
                self._deficits[tenant] = (
                    self._deficits.get(tenant, 0.0) + self._weight(tenant)
                )
                self._banked = tenant
            if self._deficits[tenant] >= 1.0:
                self._deficits[tenant] -= 1.0
                self.metrics.count("serve.sched.dispatch")
                return queue.popleft()
            self._cursor += 1
            self._banked = None

    # -- runners -------------------------------------------------------

    def _drain_queued_locked(self) -> None:
        for queue in self._queues.values():
            for job in queue:
                job.state = api.STATE_DRAINED
                job.finished_at = self._clock()
                job._event("drained")
            queue.clear()
        self._wake.notify_all()

    def _run(self) -> None:
        while True:
            with self._wake:
                job = None
                while job is None:
                    if self._stop.is_set():
                        self._drain_queued_locked()
                        return
                    job = self._next_locked()
                    if job is None:
                        self._wake.wait()
                job.state = api.STATE_RUNNING
                job.started_at = self._clock()
                job._event("started")
                self.metrics.observe(
                    f"serve.queue_wait_s.{job.tenant}",
                    max(0.0, job.started_at - job.submitted_at),
                )
                self._wake.notify_all()
            self._execute(job)

    def _progress(self, job: ServeJob):
        def on_settled(result) -> None:
            with self._wake:
                job._tally(result)
                job._event(
                    "settled",
                    job=result.job.job_id,
                    status=result.status,
                    cached=result.cached,
                    attempts=result.attempts,
                )
                self._wake.notify_all()

        return on_settled

    def _execute(self, job: ServeJob) -> None:
        try:
            extra = {} if self.fleet is None else {"fleet": self.fleet}
            report = self._runner(
                job.request, progress=self._progress(job), stop=self._stop,
                **extra,
            )
        except Exception as exc:  # noqa: BLE001 - the job absorbs it
            with self._wake:
                job.state = api.STATE_FAILED
                job.finished_at = self._clock()
                job.error = f"{type(exc).__name__}: {exc}"
                job._event("failed", error=job.error)
                self.metrics.count("serve.jobs.failed")
                self._observe_latency_locked(job)
                self._evict_locked()
                self._wake.notify_all()
            traceback.print_exc()
            return
        with self._wake:
            job.report = report
            job.total = len(report.results)
            drained = self._stop.is_set() and report.document.get(
                "counters", {}
            ).get("farm.supervise.drained", 0)
            job.state = api.STATE_DRAINED if drained else api.STATE_DONE
            job.finished_at = self._clock()
            job.exit_code = report.exit_code(
                timeout=job.request.timeout, budget=job.request.budget
            )
            job._event(
                "finished",
                state=job.state,
                exit_code=job.exit_code,
                total=job.total,
            )
            self.metrics.count("serve.jobs.completed")
            self._observe_latency_locked(job)
            counters = report.document.get("counters")
            if isinstance(counters, dict):
                for name, value in counters.items():
                    if isinstance(value, int):
                        self.metrics.count(name, value)
            self._evict_locked()
            self._wake.notify_all()

    def _observe_latency_locked(self, job: ServeJob) -> None:
        if job.started_at is not None and job.finished_at is not None:
            self.metrics.observe(
                f"serve.batch_s.{job.tenant}",
                max(0.0, job.finished_at - job.started_at),
            )

    # -- shutdown ------------------------------------------------------

    def drain(self, timeout: float = 60.0) -> bool:
        """Stop accepting and dispatching; wait for the queue to settle.

        Running batches (there may be up to ``concurrency``) see the
        stop event through their supervisors and return after their
        in-flight families journal; queued batches flip to
        ``DRAINED``.  Returns whether every runner wound down within
        ``timeout``.
        """
        with self._wake:
            self._stop.set()
            self._wake.notify_all()
        deadline = time.monotonic() + timeout
        for thread in self._runners:
            thread.join(max(0.0, deadline - time.monotonic()))
        return not any(thread.is_alive() for thread in self._runners)
