"""Fair-share scheduling, starvation bounds, and result retention.

Same contract as ``test_queue``: an injected runner, no solving.  The
acceptance scenario lives here -- a heavy tenant flooding the queue
must not starve a light tenant's single job.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro import api
from repro.serve.queue import JobQueue, RetentionPolicy
from repro.serve.tenants import TenantBook, TenantPolicy


def _report(scenario="fake"):
    return api.BatchReport(
        scenario=scenario, workers=1, wall_s=0.0,
        results=(api.ExplainResult(job_id="J0", status="EXACT"),),
        document={"schema": "repro-farm-report/2", "scenario": scenario},
    )


def _wait_terminal(queue, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = queue.status(job_id)
        if status is not None and status.terminal:
            return status
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} never settled")


class _OrderRunner:
    """Runner that records tenant dispatch order, gated on a latch.

    The latch holds the first (sacrificial) job open so every later
    submission lands in the queue before the scheduler picks again --
    dispatch order is then pure scheduling policy, not submission race.
    """

    def __init__(self):
        self.order = []
        self.release = threading.Event()
        self._first = threading.Event()

    def __call__(self, request, progress=None, stop=None):
        if not self._first.is_set():
            self._first.set()
            self.release.wait(30.0)
        else:
            self.order.append(request.name)
        return _report(scenario=request.name)


class TestFairShare:
    def test_flooding_tenant_cannot_starve_a_light_one(self):
        """Acceptance: 50 queued heavy jobs, one light job, and the
        light job still completes within a bounded number of rounds."""
        runner = _OrderRunner()
        queue = JobQueue(runner=runner, concurrency=1)
        gate = queue.submit(
            api.ExplainRequest(scenario="scenario1", no_cache=True),
            tenant="warmup",
        )
        heavy = [
            queue.submit(
                api.ExplainRequest(scenario="scenario2", no_cache=True),
                tenant="heavy",
            )
            for _ in range(50)
        ]
        light = queue.submit(
            api.ExplainRequest(scenario="scenario3", no_cache=True),
            tenant="light",
        )
        runner.release.set()
        _wait_terminal(queue, light.id)
        position = runner.order.index("scenario3")
        # Equal weights: the light job rides the first rotation -- it
        # must not sit behind the heavy tenant's whole backlog.
        assert position < 3, f"light job starved (position {position})"
        _wait_terminal(queue, heavy[-1].id, timeout=60.0)
        assert gate.terminal

    def test_weights_bias_dispatch_proportionally(self):
        runner = _OrderRunner()
        tenants = TenantBook(
            policies={
                "heavy": TenantPolicy(weight=3.0),
                "light": TenantPolicy(weight=1.0),
            }
        )
        queue = JobQueue(runner=runner, tenants=tenants, concurrency=1)
        queue.submit(
            api.ExplainRequest(scenario="scenario1", no_cache=True),
            tenant="warmup",
        )
        for _ in range(6):
            queue.submit(
                api.ExplainRequest(scenario="scenario2", no_cache=True),
                tenant="heavy",
            )
        lights = [
            queue.submit(
                api.ExplainRequest(scenario="scenario3", no_cache=True),
                tenant="light",
            )
            for _ in range(2)
        ]
        runner.release.set()
        for job in lights:
            _wait_terminal(queue, job.id)
        queue.drain(timeout=30.0)
        # Weight 3 banks three dispatches per visit to weight 1's one:
        # the first rotation serves three heavy then one light.
        first_four = runner.order[:4]
        assert first_four.count("scenario2") == 3
        assert first_four.count("scenario3") == 1

    def test_tenants_complete_under_concurrency(self):
        queue = JobQueue(
            runner=lambda request, progress=None, stop=None: _report(
                scenario=request.name
            ),
            concurrency=4,
        )
        jobs = [
            queue.submit(
                api.ExplainRequest(scenario="scenario1", no_cache=True),
                tenant=f"tenant-{i % 4}",
            )
            for i in range(12)
        ]
        for job in jobs:
            status = _wait_terminal(queue, job.id)
            assert status.state == api.STATE_DONE
        counters = queue.metrics.counters
        assert counters["serve.sched.dispatch"] == 12

    def test_new_tenant_after_a_repeat_visit_is_dispatched(self):
        """Regression: a tenant's second batch leaves the rotation
        banked past the end of the tenant list; a tenant joining then
        sits under the cursor and must bank its own weight, not crash
        the runner thread."""
        queue = JobQueue(
            runner=lambda request, progress=None, stop=None: _report(
                scenario=request.name
            ),
            concurrency=1,
        )
        for tenant in ("alice", "alice", "bob"):
            job = queue.submit(
                api.ExplainRequest(scenario="scenario1", no_cache=True),
                tenant=tenant,
            )
            assert _wait_terminal(queue, job.id, timeout=10.0).state == (
                api.STATE_DONE
            )
        assert queue.drain(timeout=10.0)


class TestRetention:
    def _queue(self, retention, clock):
        return JobQueue(
            runner=lambda request, progress=None, stop=None: _report(),
            retention=retention,
            clock=clock,
        )

    def test_ttl_evicts_old_results(self):
        now = {"t": 1000.0}
        queue = self._queue(RetentionPolicy(ttl_s=60.0), lambda: now["t"])
        old = queue.submit(
            api.ExplainRequest(scenario="scenario1", no_cache=True)
        )
        _wait_terminal(queue, old.id)
        now["t"] += 120.0
        fresh = queue.submit(
            api.ExplainRequest(scenario="scenario1", no_cache=True)
        )
        _wait_terminal(queue, fresh.id)
        # The old result aged out; the fresh one is still queryable.
        assert queue.status(old.id) is None
        assert queue.status(fresh.id) is not None
        counters = queue.metrics.counters
        assert counters["serve.jobs.evicted"] >= 1

    def test_max_completed_caps_retained_results(self):
        queue = self._queue(
            RetentionPolicy(max_completed=1), time.monotonic
        )
        jobs = [
            queue.submit(
                api.ExplainRequest(scenario="scenario1", no_cache=True)
            )
            for _ in range(3)
        ]
        # Earlier jobs are evicted the moment a later one completes,
        # so only the last is guaranteed queryable-until-terminal.
        _wait_terminal(queue, jobs[-1].id)
        retained = [
            job.id for job in jobs if queue.status(job.id) is not None
        ]
        assert retained == [jobs[-1].id]

    def test_running_jobs_are_never_evicted(self):
        release = threading.Event()

        def runner(request, progress=None, stop=None):
            release.wait(30.0)
            return _report()

        now = {"t": 1000.0}
        queue = JobQueue(
            runner=runner,
            retention=RetentionPolicy(ttl_s=0.0, max_completed=0),
            clock=lambda: now["t"],
        )
        job = queue.submit(
            api.ExplainRequest(scenario="scenario1", no_cache=True)
        )
        time.sleep(0.05)
        now["t"] += 3600.0
        # Still running: retention must not touch it.
        assert queue.status(job.id) is not None
        release.set()
        # With ttl 0 and max_completed 0 the job is evicted the moment
        # it completes; completion itself is still counted.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if queue.metrics.counters.get("serve.jobs.completed") == 1:
                break
            time.sleep(0.01)
        assert queue.metrics.counters.get("serve.jobs.completed") == 1
        assert queue.status(job.id) is None

    def test_rejects_negative_bounds(self):
        with pytest.raises(ValueError):
            RetentionPolicy(ttl_s=-1.0)
        with pytest.raises(ValueError):
            RetentionPolicy(max_completed=-1)
