"""The persistent worker fleet: claims, streams, crashes, supervision.

Pure fleet mechanics run against tiny module-level functions (the
task payload crosses a process boundary, so no lambdas); the
supervisor-integration tests run scenario1's real jobs on a shared
fleet and hold the byte-identity bar against the per-batch paths.
"""

import os
import threading
import time

import pytest

from repro import api
from repro.farm.fleet import WorkerFleet
from repro.farm.report import dump_document, normalize_document
from repro.runtime import ChaosPlan


# -- picklable task payloads --------------------------------------------


def _double(x):
    return 2 * x


def _boom():
    raise ValueError("boom")


def _hard_exit():
    os._exit(13)


def _nap_tag(tag, seconds=0.05):
    started = time.monotonic()
    time.sleep(seconds)
    return (tag, started, time.monotonic())


def _wait(predicate, timeout=10.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(message)


@pytest.fixture()
def fleet():
    fleet = WorkerFleet(2)
    yield fleet
    fleet.close()


# -- basic dispatch -----------------------------------------------------


class TestDispatch:
    def test_submit_returns_results(self, fleet):
        futures = [fleet.submit(_double, i) for i in range(6)]
        assert [f.result(timeout=30.0) for f in futures] == [
            0, 2, 4, 6, 8, 10,
        ]
        stats = fleet.stats()
        assert stats.tasks_done == 6 and stats.tasks_failed == 0 and stats.crashes == 0

    def test_exceptions_propagate_without_killing_the_worker(self, fleet):
        bad = fleet.submit(_boom)
        with pytest.raises(Exception, match="boom"):
            bad.result(timeout=30.0)
        # The worker survives a plain exception and takes more work.
        assert fleet.submit(_double, 21).result(timeout=30.0) == 42
        stats = fleet.stats()
        assert stats.tasks_failed == 1 and stats.crashes == 0

    def test_worker_crash_fails_only_its_task(self, fleet):
        doomed = fleet.submit(_hard_exit)
        healthy = [fleet.submit(_double, i) for i in range(4)]
        with pytest.raises(Exception):
            doomed.result(timeout=30.0)
        assert [f.result(timeout=30.0) for f in healthy] == [0, 2, 4, 6]
        assert fleet.stats().crashes == 1
        # The replacement spawned: the fleet is back to full strength.
        _wait(
            lambda: fleet.stats().alive == 2,
            message="crashed worker was never replaced",
        )

    def test_kill_task_terminates_the_holder(self, fleet):
        doomed = fleet.submit(_nap_tag, "doomed", 60.0)
        _wait(
            lambda: fleet.started_at(doomed) is not None,
            message="task was never claimed",
        )
        assert fleet.kill_task(doomed)
        with pytest.raises(Exception):
            doomed.result(timeout=30.0)
        # The fleet recovers and keeps serving.
        assert fleet.submit(_double, 5).result(timeout=30.0) == 10

    def test_started_at_tracks_the_claim(self, fleet):
        blockers = [fleet.submit(_nap_tag, f"b{i}", 0.3) for i in range(2)]
        queued = fleet.submit(_double, 7)
        # Both workers are busy, so the third task waits unclaimed.
        assert fleet.started_at(queued) is None or queued.done()
        assert queued.result(timeout=30.0) == 14
        for blocker in blockers:
            blocker.result(timeout=30.0)


# -- fair streams -------------------------------------------------------


class TestStreams:
    def test_streams_interleave_round_robin(self):
        with WorkerFleet(1) as fleet:
            blocker = fleet.submit(_nap_tag, "blocker", 0.3)
            _wait(
                lambda: fleet.started_at(blocker) is not None,
                message="blocker was never claimed",
            )
            futures = [
                fleet.submit(_nap_tag, f"a{i}", 0.01, stream="A")
                for i in range(3)
            ] + [
                fleet.submit(_nap_tag, f"b{i}", 0.01, stream="B")
                for i in range(3)
            ]
            ran = sorted(
                (f.result(timeout=30.0) for f in futures),
                key=lambda r: r[1],
            )
            # One worker drains both streams alternately, never three
            # of one stream before the other's first.
            sequence = [tag[0] for tag, _, _ in ran]
            assert sorted(sequence) == ["a", "a", "a", "b", "b", "b"]
            assert sequence[:2] in (["a", "b"], ["b", "a"])

    def test_stream_cap_bounds_concurrent_claims(self):
        with WorkerFleet(2) as fleet:
            capped = [
                fleet.submit(
                    _nap_tag, f"c{i}", 0.15, stream="capped", stream_cap=1
                )
                for i in range(2)
            ]
            spans = [f.result(timeout=30.0) for f in capped]
            spans.sort(key=lambda span: span[1])
            # Two workers were idle, but the cap holds the stream to
            # one claim at a time: the runs must not overlap.
            assert spans[1][1] >= spans[0][2] - 0.01

    def test_uncapped_streams_use_all_workers(self):
        with WorkerFleet(2) as fleet:
            # One warm-up task per worker (an idle fleet hands each
            # submission to a different worker), so the timed pair
            # measures claims, not spawned workers still importing.
            warmups = [fleet.submit(_double, i) for i in range(2)]
            assert [f.result(timeout=30.0) for f in warmups] == [0, 2]
            futures = [
                fleet.submit(_nap_tag, f"u{i}", 0.15, stream="wide")
                for i in range(2)
            ]
            spans = [f.result(timeout=30.0) for f in futures]
            spans.sort(key=lambda span: span[1])
            # No cap: the second task starts before the first ends.
            assert spans[1][1] < spans[0][2]


# -- supervised batches on a fleet --------------------------------------


def _request(scenario, cache_dir, **kwargs):
    return api.ExplainRequest(
        scenario=scenario, cache_dir=cache_dir, workers=2, **kwargs
    )


def _served_text(report):
    return dump_document(normalize_document(dict(report.document)))


class TestSupervisedOnFleet:
    def test_batch_documents_match_the_pool_path(self, tmp_path):
        from repro.farm.worker import reset_shared_slot

        # Forked pool children inherit this process's shared caches;
        # a batch an earlier test ran in-process would warm them and
        # change the pool path's counters, never the fleet's.
        reset_shared_slot()
        pool_dir = tmp_path / "pool"
        fleet_dir = tmp_path / "fleet"
        pool_cold = api.explain_batch(_request("scenario1", str(pool_dir)))
        pool_warm = api.explain_batch(_request("scenario1", str(pool_dir)))
        with WorkerFleet(2) as fleet:
            cold = api.explain_batch(
                _request("scenario1", str(fleet_dir)), fleet=fleet
            )
            warm = api.explain_batch(
                _request("scenario1", str(fleet_dir)), fleet=fleet
            )
        assert _served_text(cold) == _served_text(pool_cold)
        assert _served_text(warm) == _served_text(pool_warm)
        assert all(r.status == "CACHED" for r in warm.results)

    def test_chaos_kill_on_fleet_retries_and_completes(self, tmp_path):
        from repro.farm import SupervisePolicy, enumerate_jobs
        from repro.farm.supervise import run_supervised
        from repro.scenarios import scenario1

        s1 = scenario1()
        jobs = enumerate_jobs(s1.paper_config, s1.specification)
        plan = ChaosPlan().kill(jobs[1].job_id)
        with WorkerFleet(2) as fleet:
            report = run_supervised(
                s1.paper_config, s1.specification, jobs,
                cache_dir=str(tmp_path), scenario="scenario1",
                policy=SupervisePolicy(backoff_base=0.0, chaos=plan),
                fleet=fleet,
            )
            assert all(r.status == "EXACT" for r in report.results)
            by_id = {r.job.job_id: r for r in report.results}
            assert by_id[jobs[1].job_id].attempts >= 2
            assert report.metrics.counters["farm.supervise.crash"] >= 1
            # The fleet replaced the dead worker and keeps serving.
            _wait(
                lambda: fleet.stats().alive == 2,
                message="fleet never recovered from the chaos kill",
            )
            again = run_supervised(
                s1.paper_config, s1.specification, jobs,
                cache_dir=str(tmp_path), scenario="scenario1",
                policy=SupervisePolicy(backoff_base=0.0),
                fleet=fleet,
            )
            assert all(r.status == "CACHED" for r in again.results)

    def test_concurrent_batches_share_one_fleet(self, tmp_path):
        reports = {}
        errors = []

        def run(name, directory):
            try:
                reports[name] = api.explain_batch(
                    _request(name, directory), fleet=fleet
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        with WorkerFleet(2) as fleet:
            threads = [
                threading.Thread(
                    target=run, args=("scenario1", str(tmp_path / "a"))
                ),
                threading.Thread(
                    target=run, args=("scenario2", str(tmp_path / "b"))
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        assert not errors
        assert set(reports) == {"scenario1", "scenario2"}
        for report in reports.values():
            assert all(r.ok for r in report.results)
