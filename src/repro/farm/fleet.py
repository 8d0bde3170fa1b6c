"""The persistent worker fleet: processes that outlive their batches.

A :class:`WorkerFleet` keeps one set of worker processes alive for the
lifetime of the owning process -- the serving layer spins one up at
boot -- and batches borrow workers from it instead of forking their
own, so a batch pays no process spawn and finds warm in-worker state
(the :class:`~repro.explain.family.SharedCaches` slot and the resident
:class:`~repro.farm.store.ArtifactStore` handle).  One-off batches
still use a per-batch pool; :mod:`repro.farm.supervise` says why and
how the two differ.

Design points:

* **Claim-based dispatch.**  Tasks queue fleet-side; the first worker
  to go idle claims the next task.  The fleet assigns a task to a
  specific worker *before* shipping it, so the parent always knows
  exactly which task a dead worker was holding -- no claimed-but-
  unacknowledged limbo.
* **Fair streams.**  A submitter may tag tasks with a ``stream`` (the
  supervisor uses one stream per batch): claims rotate round-robin
  over streams with queued work, and a stream's ``cap`` bounds how
  many workers it may hold at once (the request's ``workers``).
  Batches therefore dispatch *deeply* -- every family queued
  fleet-side up front -- without monopolizing the fleet, and an idle
  worker picks up the next family the instant one finishes instead of
  waiting a supervisor round-trip.
* **Crash containment.**  A worker that dies (chaos kill, OOM, C-level
  abort) fails *only its own claimed task* -- its future raises
  :class:`~repro.runtime.WorkerCrash` -- and is replaced by a fresh
  process immediately.  Other workers, and therefore other batches
  multiplexed onto the fleet, keep running.  (Contrast
  ``ProcessPoolExecutor``, where one dead child breaks the whole pool
  and every in-flight future.)  Results travel over one single-writer
  pipe per worker -- never a queue shared between workers -- so a
  worker dying mid-send cannot poison a cross-process lock that other
  workers' result sends depend on.
* **Targeted hang recovery.**  :meth:`WorkerFleet.kill_task` terminates
  just the worker holding one task (the supervisor's watchdog calls
  it); the replacement worker spawns before the call returns to the
  monitor loop.
* **Resident-state accounting.**  Workers report their process-local
  residency counters (shared-cache warm hits, resident store handles)
  out of band with each result, so fleet warmth is observable in
  ``/v1/metrics`` without contaminating batch report documents --
  served results stay byte-identical to single-shot CLI runs.

Futures are plain :class:`concurrent.futures.Future` objects resolved
by the fleet's management thread, so callers can use
:func:`concurrent.futures.wait` exactly as they would against an
executor.  Submission is thread-safe: many supervisors (one per
in-flight batch) share one fleet.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection as mp_connection
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..obs import MetricsRegistry
from ..runtime import WorkerCrash

__all__ = ["FleetStats", "WorkerFleet"]

#: Management-thread tick: bounds crash-detection and dispatch latency
#: without busy-waiting.
_TICK_S = 0.05


def _fleet_worker_main(worker_id: int, inbox: Any, results: Any) -> None:
    """One worker process: claim, run, report, repeat until sentinel.

    Module-level state in :mod:`repro.farm.worker` (the shared-cache
    slot, the resident store handles) persists across tasks by
    construction -- that persistence *is* the fleet's warm-cache win.
    After each task the worker ships its residency-counter deltas
    alongside the result, keeping them out of the result payload.

    ``results`` is this worker's *private* pipe end, not a shared
    queue.  A queue shared by every worker serializes writers through
    one cross-process lock, and a worker that dies (chaos kill,
    ``os._exit``, OOM) in the instant between finishing its write and
    releasing that lock poisons the lock for the whole fleet -- every
    later result send blocks forever.  With one single-writer pipe per
    worker there is no lock to poison: a dying worker can at worst
    truncate its own final frame, which the parent reads as EOF on a
    channel whose worker it already knows is dead.
    """
    from .worker import enable_hot_stores, take_residency_stats

    enable_hot_stores()
    while True:
        item = inbox.get()
        if item is None:
            return
        task_id, fn, args, kwargs = item
        try:
            result: Any = fn(*args, **(kwargs or {}))
            message = ("done", worker_id, task_id, result, take_residency_stats())
        except BaseException as exc:  # noqa: BLE001 - crosses a process boundary
            message = (
                "error", worker_id, task_id,
                f"{type(exc).__name__}: {exc}", take_residency_stats(),
            )
        results.send(message)


@dataclass
class FleetStats:
    """A point-in-time snapshot of the fleet's health and warmth."""

    workers: int
    alive: int
    inflight: int
    pending: int
    tasks_done: int = 0
    tasks_failed: int = 0
    crashes: int = 0
    spawned: int = 0
    #: Worker-side residency counters (e.g. shared-cache warm hits),
    #: summed over every task the fleet has completed.
    residency: Dict[str, int] = field(default_factory=dict)


class _Worker:
    """Parent-side record of one worker process."""

    def __init__(self, process: Any, inbox: Any, results: Any) -> None:
        self.process = process
        self.inbox = inbox
        #: Parent-side read end of the worker's private result pipe.
        self.results = results
        #: The task this worker currently holds, or ``None`` when idle.
        self.task_id: Optional[str] = None


class _Task:
    """One submitted unit: the call, its future, and its claim state."""

    def __init__(
        self,
        task_id: str,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Optional[Dict[str, Any]],
        stream: str,
    ) -> None:
        self.task_id = task_id
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.stream = stream
        self.future: Future = Future()
        self.worker_id: Optional[int] = None
        #: Monotonic time the task was handed to its worker; ``None``
        #: while still queued (the hang watchdog keys off this, so
        #: fleet queue wait never counts against a hang allowance).
        self.claimed_at: Optional[float] = None


class WorkerFleet:
    """A long-lived pool of worker processes shared across batches."""

    def __init__(
        self,
        workers: int,
        metrics: Optional[MetricsRegistry] = None,
        mp_context: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("a fleet needs at least one worker")
        self.size = workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Spawn, never fork: workers are (re)spawned from threads -- the
        # serving layer's runner threads, the crash collector -- and a
        # fork there can inherit a held lock (queue feeder, logging) and
        # deadlock the child.  Spawn cost is paid once per worker
        # lifetime, which is the whole point of a persistent fleet.
        self._ctx = (
            mp_context
            if mp_context is not None
            else multiprocessing.get_context("spawn")
        )
        self._lock = threading.Lock()
        self._tasks: Dict[str, _Task] = {}
        #: Per-stream FIFO of queued task ids; claims rotate over
        #: streams round-robin.
        self._pending: Dict[str, Deque[str]] = {}
        self._stream_order: List[str] = []
        self._stream_cursor = 0
        #: Per-stream claim cap (``None`` = unbounded) and live claims.
        self._stream_caps: Dict[str, Optional[int]] = {}
        self._stream_claims: Dict[str, int] = {}
        self._workers: Dict[int, _Worker] = {}
        self._worker_serial = itertools.count(1)
        self._task_serial = itertools.count(1)
        self._closed = threading.Event()
        self._tasks_done = 0
        self._tasks_failed = 0
        self._crashes = 0
        self._spawned = 0
        self._residency: Dict[str, int] = {}
        with self._lock:
            for _ in range(workers):
                self._spawn_locked()
        self._thread = threading.Thread(
            target=self._run, name="repro-farm-fleet", daemon=True
        )
        self._thread.start()

    # -- public API -----------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        stream: Optional[str] = None,
        stream_cap: Optional[int] = None,
        **kwargs: Any,
    ) -> Future:
        """Queue one call; the first idle worker claims it.

        ``stream`` groups tasks for round-robin fairness (tasks with no
        stream share one default lane); ``stream_cap`` bounds how many
        workers the stream may hold at once, so a batch can queue every
        family up front without monopolizing the fleet.  Returns a
        :class:`concurrent.futures.Future` resolving to the call's
        return value, or raising :class:`WorkerCrash` if the claiming
        worker dies under it.
        """
        if self._closed.is_set():
            raise RuntimeError("fleet is closed")
        lane = stream if stream is not None else ""
        with self._lock:
            task = _Task(
                f"task-{next(self._task_serial):06d}", fn, args,
                kwargs or None, lane,
            )
            self._tasks[task.task_id] = task
            if lane not in self._pending:
                self._pending[lane] = deque()
                self._stream_order.append(lane)
            self._pending[lane].append(task.task_id)
            if stream_cap is not None:
                self._stream_caps[lane] = max(1, stream_cap)
            self._assign_locked()
        return task.future

    def started_at(self, future: Future) -> Optional[float]:
        """Monotonic claim time of ``future``'s task (``None`` while
        queued or once the task has left the table)."""
        with self._lock:
            for task in self._tasks.values():
                if task.future is future:
                    return task.claimed_at
        return None

    def kill_task(self, future: Future) -> bool:
        """Terminate the worker holding ``future``'s task (watchdog).

        The dead worker is replaced on the next management tick; only
        the targeted task fails.  Returns whether a worker was killed
        (``False`` when the task already finished or never started).
        """
        with self._lock:
            for task_id, task in list(self._tasks.items()):
                if task.future is not future:
                    continue
                if task.worker_id is None:
                    # Not claimed yet: cancel it in place so no worker
                    # ever picks it up.
                    del self._tasks[task_id]
                    lane = self._pending.get(task.stream)
                    if lane is not None:
                        try:
                            lane.remove(task_id)
                        except ValueError:
                            pass
                    task.future.cancel()
                    return False
                worker = self._workers.get(task.worker_id)
                if worker is not None and worker.process.is_alive():
                    try:
                        worker.process.terminate()
                    except Exception:
                        return False
                    return True
        return False

    def stats(self) -> FleetStats:
        with self._lock:
            return FleetStats(
                workers=self.size,
                alive=sum(
                    1 for w in self._workers.values() if w.process.is_alive()
                ),
                inflight=sum(
                    1 for w in self._workers.values() if w.task_id is not None
                ),
                pending=sum(len(lane) for lane in self._pending.values()),
                tasks_done=self._tasks_done,
                tasks_failed=self._tasks_failed,
                crashes=self._crashes,
                spawned=self._spawned,
                residency=dict(self._residency),
            )

    def observe_gauges(self, metrics: MetricsRegistry) -> None:
        """Publish the fleet's health as gauges (the ``/v1/metrics``
        scrape path refreshes these just before rendering)."""
        snapshot = self.stats()
        metrics.gauge("farm.fleet.workers", float(snapshot.workers))
        metrics.gauge("farm.fleet.workers_alive", float(snapshot.alive))
        metrics.gauge("farm.fleet.inflight", float(snapshot.inflight))
        metrics.gauge("farm.fleet.pending", float(snapshot.pending))
        metrics.gauge("farm.fleet.tasks_done", float(snapshot.tasks_done))
        metrics.gauge("farm.fleet.crashes", float(snapshot.crashes))
        metrics.gauge("farm.fleet.spawned", float(snapshot.spawned))
        for name, value in sorted(snapshot.residency.items()):
            metrics.gauge(f"farm.fleet.{name}", float(value))

    def close(self, timeout: float = 5.0) -> None:
        """Stop the fleet: fail outstanding futures, reap the workers."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._thread.join(timeout)
        with self._lock:
            for task in list(self._tasks.values()):
                if not task.future.done():
                    task.future.set_exception(RuntimeError("fleet closed"))
            self._tasks.clear()
            self._pending.clear()
            self._stream_order.clear()
            self._stream_caps.clear()
            self._stream_claims.clear()
            for worker in self._workers.values():
                try:
                    worker.inbox.put(None)
                except Exception:
                    pass
            for worker in self._workers.values():
                worker.process.join(timeout=timeout)
                if worker.process.is_alive():
                    try:
                        worker.process.terminate()
                    except Exception:
                        pass
                try:
                    worker.results.close()
                except OSError:
                    pass
            self._workers.clear()

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- management thread ----------------------------------------------

    def _spawn_locked(self) -> None:
        worker_id = next(self._worker_serial)
        inbox = self._ctx.Queue()
        # One single-writer result pipe per worker (see
        # :func:`_fleet_worker_main` for why this is not a shared
        # queue).  The write end is duplicated into the child at
        # ``start()``; closing the parent's copy right after means a
        # clean worker exit shows up as EOF on the read end.
        results_r, results_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_fleet_worker_main,
            args=(worker_id, inbox, results_w),
            name=f"repro-fleet-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        results_w.close()
        self._workers[worker_id] = _Worker(process, inbox, results_r)
        self._spawned += 1
        self.metrics.count("farm.fleet.spawn")

    def _next_task_locked(self) -> Optional[_Task]:
        """The next claimable task, round-robin over streams.

        Streams at their claim cap are skipped (their tasks stay
        queued); exhausted streams are retired from the rotation.
        Returns ``None`` when nothing is claimable right now.
        """
        skipped = 0
        while self._stream_order and skipped < len(self._stream_order):
            if self._stream_cursor >= len(self._stream_order):
                self._stream_cursor = 0
            lane = self._stream_order[self._stream_cursor]
            queued = self._pending.get(lane)
            if not queued:
                # Retire the empty stream (and its cap bookkeeping,
                # once no claims are outstanding).
                del self._stream_order[self._stream_cursor]
                self._pending.pop(lane, None)
                if self._stream_claims.get(lane, 0) <= 0:
                    self._stream_caps.pop(lane, None)
                    self._stream_claims.pop(lane, None)
                skipped = 0
                continue
            cap = self._stream_caps.get(lane)
            if cap is not None and self._stream_claims.get(lane, 0) >= cap:
                self._stream_cursor += 1
                skipped += 1
                continue
            task: Optional[_Task] = None
            while queued:
                task_id = queued.popleft()
                candidate = self._tasks.get(task_id)
                if candidate is None or candidate.future.done():
                    self._tasks.pop(task_id, None)
                    continue
                task = candidate
                break
            if task is None:
                continue  # only cancelled entries; retires next pass
            self._stream_cursor += 1
            return task
        return None

    def _assign_locked(self) -> None:
        """Hand pending tasks to idle workers (the claim step)."""
        for worker_id, worker in self._workers.items():
            if worker.task_id is not None or not worker.process.is_alive():
                continue
            task = self._next_task_locked()
            if task is None:
                return
            task.worker_id = worker_id
            task.claimed_at = time.monotonic()
            worker.task_id = task.task_id
            self._stream_claims[task.stream] = (
                self._stream_claims.get(task.stream, 0) + 1
            )
            worker.inbox.put((task.task_id, task.fn, task.args, task.kwargs))

    def _release_claim_locked(self, task: _Task) -> None:
        lane = task.stream
        remaining = self._stream_claims.get(lane, 0) - 1
        if remaining > 0:
            self._stream_claims[lane] = remaining
        elif lane not in self._pending:
            self._stream_claims.pop(lane, None)
            self._stream_caps.pop(lane, None)
        else:
            self._stream_claims[lane] = 0

    def _resolve_locked(self, message: Tuple[Any, ...]) -> None:
        kind, worker_id, task_id, payload, residency = message
        worker = self._workers.get(worker_id)
        if worker is not None and worker.task_id == task_id:
            worker.task_id = None
        task = self._tasks.pop(task_id, None)
        if task is not None and task.worker_id is not None:
            self._release_claim_locked(task)
        for name, value in (residency or {}).items():
            self._residency[name] = self._residency.get(name, 0) + int(value)
        if task is None or task.future.done():
            return
        if kind == "done":
            self._tasks_done += 1
            self.metrics.count("farm.fleet.tasks_done")
            task.future.set_result(payload)
        else:
            self._tasks_failed += 1
            self.metrics.count("farm.fleet.tasks_failed")
            task.future.set_exception(WorkerCrash(str(payload)))

    def _reap_locked(self) -> None:
        """Replace dead workers; fail only the tasks they were holding."""
        dead = [
            (worker_id, worker)
            for worker_id, worker in self._workers.items()
            if not worker.process.is_alive()
        ]
        for worker_id, worker in dead:
            # A worker that died *after* completing its task may have
            # left a full result frame in its pipe; drain it first so
            # finished work resolves instead of being retried as a
            # crash.  A truncated final frame raises and falls through
            # to the crash path.
            try:
                while worker.results.poll(0):
                    self._resolve_locked(worker.results.recv())
            except (EOFError, OSError):
                pass
            del self._workers[worker_id]
            try:
                worker.results.close()
            except OSError:
                pass
            self._crashes += 1
            self.metrics.count("farm.fleet.crash")
            if worker.task_id is not None:
                task = self._tasks.pop(worker.task_id, None)
                if task is not None:
                    self._release_claim_locked(task)
                if task is not None and not task.future.done():
                    self._tasks_failed += 1
                    exitcode = worker.process.exitcode
                    task.future.set_exception(
                        WorkerCrash(
                            f"fleet worker died (exit {exitcode}) "
                            f"while running {worker.task_id}"
                        )
                    )
            self._spawn_locked()

    def _run(self) -> None:
        while not self._closed.is_set():
            with self._lock:
                conns = [w.results for w in self._workers.values()]
            if conns:
                try:
                    ready = mp_connection.wait(conns, timeout=_TICK_S)
                except OSError:
                    ready = []
            else:
                time.sleep(_TICK_S)
                ready = []
            messages: List[Tuple[Any, ...]] = []
            for conn in ready:
                # EOF / a truncated frame means the worker died; the
                # reap below notices via process liveness and fails
                # only that worker's claimed task.
                try:
                    messages.append(conn.recv())
                except (EOFError, OSError):
                    pass
            with self._lock:
                for message in messages:
                    self._resolve_locked(message)
                self._reap_locked()
                self._assign_locked()
