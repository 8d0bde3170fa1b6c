"""The job machine, exercised with an injected runner (no solving)."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro import api
from repro.serve.queue import JobQueue


def _settled(job_id, status="EXACT", cached=False, attempts=1):
    return SimpleNamespace(
        job=SimpleNamespace(job_id=job_id),
        status=status,
        cached=cached,
        attempts=attempts,
        ok=status in ("EXACT", "CACHED"),
        degraded=status in ("DEGRADED_LIFT", "DEGRADED_RAW", "FAILED"),
        quarantined=status == "QUARANTINED",
    )


def _report(scenario="fake", statuses=("EXACT", "EXACT"), counters=None):
    results = tuple(
        api.ExplainResult(job_id=f"J{i}", status=status)
        for i, status in enumerate(statuses)
    )
    document = {
        "schema": "repro-farm-report/2",
        "scenario": scenario,
        "counters": dict(counters or {}),
    }
    return api.BatchReport(
        scenario=scenario, workers=1, wall_s=0.0,
        results=results, document=document,
    )


def _runner_ok(request, progress=None, stop=None):
    for i in range(2):
        if progress is not None:
            progress(_settled(f"J{i}"))
    return _report(scenario=request.name)


def _wait_terminal(queue, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = queue.status(job_id)
        if status is not None and status.terminal:
            return status
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never settled")


class TestLifecycle:
    def test_submit_runs_to_done(self):
        queue = JobQueue(runner=_runner_ok)
        job = queue.submit(api.ExplainRequest(scenario="scenario1", no_cache=True))
        status = _wait_terminal(queue, job.id)
        assert status.state == api.STATE_DONE
        assert status.settled == 2 and status.ok == 2
        assert status.total == 2
        assert status.exit_code == 0
        kinds = [event["event"] for event in queue.get(job.id).events]
        assert kinds == ["queued", "started", "settled", "settled", "finished"]
        seqs = [event["seq"] for event in queue.get(job.id).events]
        assert seqs == [0, 1, 2, 3, 4]

    def test_runner_exception_fails_the_job_not_the_queue(self):
        calls = []

        def runner(request, progress=None, stop=None):
            calls.append(request.name)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return _report(scenario=request.name)

        queue = JobQueue(runner=runner)
        bad = queue.submit(api.ExplainRequest(scenario="scenario1", no_cache=True))
        good = queue.submit(api.ExplainRequest(scenario="scenario2", no_cache=True))
        assert _wait_terminal(queue, bad.id).state == api.STATE_FAILED
        assert "boom" in queue.status(bad.id).error
        # The dispatcher survives and runs the next batch.
        assert _wait_terminal(queue, good.id).state == api.STATE_DONE

    def test_fifo_order(self):
        order = []

        def runner(request, progress=None, stop=None):
            order.append(request.name)
            return _report(scenario=request.name)

        queue = JobQueue(runner=runner)
        for name in ("scenario1", "scenario2", "scenario3"):
            queue.submit(api.ExplainRequest(scenario=name, no_cache=True))
        last = queue.submit(api.ExplainRequest(scenario="campus", no_cache=True))
        _wait_terminal(queue, last.id)
        assert order == ["scenario1", "scenario2", "scenario3", "campus"]

    def test_cache_dir_is_imposed_on_requests(self):
        seen = {}

        def runner(request, progress=None, stop=None):
            seen["cache_dir"] = request.cache_dir
            seen["no_cache"] = request.no_cache
            return _report()

        queue = JobQueue(cache_dir="/srv/cache", runner=runner)
        job = queue.submit(api.ExplainRequest(scenario="scenario1"))
        _wait_terminal(queue, job.id)
        assert seen == {"cache_dir": "/srv/cache", "no_cache": False}

    def test_events_since_replays_history_and_blocks_for_more(self):
        release = threading.Event()

        def runner(request, progress=None, stop=None):
            progress(_settled("J0"))
            release.wait(10.0)
            progress(_settled("J1"))
            return _report()

        queue = JobQueue(runner=runner)
        job = queue.submit(api.ExplainRequest(scenario="scenario1", no_cache=True))
        # Late subscriber replays everything so far.
        events = queue.events_since(job.id, 0, timeout=5.0)
        assert [e["event"] for e in events][:1] == ["queued"]
        got = {}

        def subscribe():
            got["events"] = queue.events_since(job.id, 3, timeout=10.0)

        waiter = threading.Thread(target=subscribe)
        waiter.start()
        release.set()
        waiter.join(timeout=10.0)
        assert [e["event"] for e in got["events"]][0] == "settled"

    def test_events_since_unknown_job(self):
        queue = JobQueue(runner=_runner_ok)
        assert queue.events_since("job-999999", 0, timeout=0.1) == []


class TestDrain:
    def test_drain_flushes_queued_jobs(self):
        started = threading.Event()
        stop_seen = {}

        def runner(request, progress=None, stop=None):
            started.set()
            stop.wait(30.0)
            stop_seen["was_set"] = stop.is_set()
            return _report(counters={"farm.supervise.drained": 1})

        queue = JobQueue(runner=runner)
        running = queue.submit(
            api.ExplainRequest(scenario="scenario1", no_cache=True)
        )
        queued = queue.submit(
            api.ExplainRequest(scenario="scenario2", no_cache=True)
        )
        assert started.wait(10.0)
        assert queue.drain(timeout=30.0)
        # The in-flight batch saw the stop event and reported a drain;
        # the queued one never ran.
        assert stop_seen == {"was_set": True}
        assert queue.status(running.id).state == api.STATE_DRAINED
        assert queue.status(queued.id).state == api.STATE_DRAINED
        assert queue.get(queued.id).report is None

    def test_completed_batch_stays_done_across_drain(self):
        queue = JobQueue(runner=_runner_ok)
        job = queue.submit(api.ExplainRequest(scenario="scenario1", no_cache=True))
        _wait_terminal(queue, job.id)
        assert queue.drain(timeout=10.0)
        assert queue.status(job.id).state == api.STATE_DONE

    def test_submit_after_drain_is_refused(self):
        queue = JobQueue(runner=_runner_ok)
        queue.drain(timeout=10.0)
        try:
            queue.submit(api.ExplainRequest(scenario="scenario1", no_cache=True))
        except RuntimeError as exc:
            assert "draining" in str(exc)
        else:
            raise AssertionError("submit after drain must be refused")

    def test_metrics_fold_in_batch_counters(self):
        queue = JobQueue(
            runner=lambda request, progress=None, stop=None: _report(
                counters={"farm.families": 2, "smt.sat.conflicts": 7}
            )
        )
        job = queue.submit(api.ExplainRequest(scenario="scenario1", no_cache=True))
        _wait_terminal(queue, job.id)
        assert queue.metrics.counters["farm.families"] == 2
        assert queue.metrics.counters["smt.sat.conflicts"] == 7
        assert queue.metrics.counters["serve.jobs.completed"] == 1


class TestSinceRequests:
    """``since`` requests run under the supervisor like every batch:
    they stream one ``settled`` event per job, and their status counts
    equal the job rows."""

    @pytest.fixture(autouse=True)
    def _fresh_shared_slot(self):
        # The queue runs serial batches in this process: leave no
        # shared caches behind for later tests.
        from repro.farm.worker import reset_shared_slot

        reset_shared_slot()
        yield
        reset_shared_slot()

    @staticmethod
    def _warm(cache):
        api.explain_batch(api.ExplainRequest(scenario="scenario1", cache_dir=cache))

    @staticmethod
    def _settled_jobs(queue, job_id):
        return sorted(
            event["job"]
            for event in queue.get(job_id).events
            if event["event"] == "settled"
        )

    def test_unchanged_config_settles_every_job_from_the_cache(self, tmp_path):
        from repro.bgp.render import render_network
        from repro.scenarios import scenario1

        cache = str(tmp_path)
        self._warm(cache)
        queue = JobQueue(cache_dir=cache)
        try:
            job = queue.submit(
                api.ExplainRequest(
                    scenario="scenario1",
                    since=render_network(scenario1().paper_config),
                )
            )
            status = _wait_terminal(queue, job.id, timeout=120.0)
            assert status.state == api.STATE_DONE
            assert status.settled == status.total == status.cached == 2
            report = queue.get(job.id).report
            assert self._settled_jobs(queue, job.id) == sorted(
                result.job_id for result in report.results
            )
        finally:
            queue.drain(timeout=30.0)

    def test_dirty_job_runs_on_the_lent_fleet(self, tmp_path):
        from repro.bgp.render import render_network
        from repro.bgp.routemap import RouteMap, RouteMapLine
        from repro.farm.fleet import WorkerFleet
        from repro.scenarios import scenario1
        from repro.spec.printer import format_specification
        from repro.topology import render_topology

        cache = str(tmp_path)
        self._warm(cache)
        # Renumber R2's map: R2's question changes, R1's does not.
        s1 = scenario1()
        edited = s1.paper_config.copy()
        routemap = edited.get_map("R2", "out", "P2")
        lines = tuple(
            RouteMapLine(
                seq=line.seq + 5, action=line.action,
                match_attr=line.match_attr, match_value=line.match_value,
                sets=line.sets,
            )
            for line in routemap.lines
        )
        edited.set_map("R2", "out", "P2", RouteMap(routemap.name, lines))
        request = api.ExplainRequest(
            topology=render_topology(s1.topology),
            spec=format_specification(s1.specification),
            config=render_network(edited),
            managed=tuple(sorted(s1.specification.managed)),
            since=render_network(s1.paper_config),
            workers=2,
        )
        with WorkerFleet(2) as fleet:
            queue = JobQueue(cache_dir=cache, fleet=fleet)
            try:
                job = queue.submit(request)
                status = _wait_terminal(queue, job.id, timeout=120.0)
                assert status.state == api.STATE_DONE
                assert status.settled == status.total == status.ok == 2
                assert status.cached == 1
                assert fleet.stats().tasks_done == 1
                report = queue.get(job.id).report
                assert self._settled_jobs(queue, job.id) == sorted(
                    result.job_id for result in report.results
                )
            finally:
                queue.drain(timeout=30.0)
