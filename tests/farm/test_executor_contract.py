"""One contract for every place the supervisor runs units.

The same checks run in-process (``workers=1``), on a per-batch process
pool (``workers=2``) and on a lent :class:`WorkerFleet`: a cold batch
answers alike, retries settle with the right attempt counts, a drain
leaves work unsettled, and -- where there is a process to lose -- a
killed or hung worker costs the batch nothing but the victim's retry,
and an abort never waits on a hung worker.
"""

import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.farm import enumerate_jobs
from repro.farm import supervise
from repro.farm.fleet import WorkerFleet
from repro.farm.worker import reset_shared_slot
from repro.runtime import ChaosPlan, ReproError

from .test_chaos import _answers, _supervise, jobs  # noqa: F401 (fixture)

EXECUTORS = ["in-process", "pool", "fleet"]
PROCESS_EXECUTORS = ["pool", "fleet"]


@pytest.fixture(scope="module")
def fleet():
    fleet = WorkerFleet(2)
    yield fleet
    fleet.close()


@pytest.fixture()
def executor(request):
    """``run_supervised`` keyword arguments choosing where units run."""
    if request.param == "in-process":
        return {"workers": 1}
    if request.param == "pool":
        return {"workers": 2}
    return {"workers": 2, "fleet": request.getfixturevalue("fleet")}


@pytest.fixture(scope="module")
def reference(s1, tmp_path_factory):
    reset_shared_slot()
    return _supervise(
        s1, enumerate_jobs(s1.paper_config, s1.specification),
        str(tmp_path_factory.mktemp("reference")),
    )


def _statuses(report):
    return {r.job.job_id: r.status for r in report.results}


@pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
def test_cold_batch_answers_alike(s1, jobs, executor, reference, tmp_path):
    # Compare answers, not documents: in-process runs share caches
    # across families, so their work counters differ from the pool's.
    reset_shared_slot()
    report = _supervise(s1, jobs, str(tmp_path), **executor)
    assert _statuses(report) == _statuses(reference)
    assert set(_statuses(report).values()) == {"EXACT"}
    assert _answers(report) == _answers(reference)


@pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
def test_flaky_job_retries_to_exact(s1, jobs, executor, tmp_path):
    plan = ChaosPlan().flaky(jobs[0].job_id, times=2)
    report = _supervise(
        s1, jobs, str(tmp_path), **executor,
        policy={"chaos": plan, "max_retries": 2},
    )
    by_id = {r.job.job_id: r for r in report.results}
    assert by_id[jobs[0].job_id].status == "EXACT"
    assert by_id[jobs[0].job_id].attempts == 3
    assert by_id[jobs[1].job_id].attempts == 1
    assert report.metrics.counters["farm.supervise.retry"] == 2


@pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
def test_preset_stop_drains_everything(s1, jobs, executor, tmp_path):
    stop = threading.Event()
    stop.set()
    report = _supervise(s1, jobs, str(tmp_path), stop=stop, **executor)
    assert report.results == []
    assert report.metrics.counters["farm.supervise.drained"] == len(jobs)


@pytest.mark.parametrize("executor", PROCESS_EXECUTORS, indirect=True)
def test_killed_worker_costs_a_retry(s1, jobs, executor, tmp_path):
    plan = ChaosPlan().kill(jobs[1].job_id)
    report = _supervise(
        s1, jobs, str(tmp_path), **executor, policy={"chaos": plan}
    )
    assert set(_statuses(report).values()) == {"EXACT"}
    assert report.metrics.counters["farm.supervise.crash"] >= 1


@pytest.mark.parametrize("executor", PROCESS_EXECUTORS, indirect=True)
def test_hung_worker_is_caught_by_the_watchdog(s1, jobs, executor, tmp_path):
    plan = ChaosPlan().hang(jobs[0].job_id, seconds=60.0)
    report = _supervise(
        s1, jobs, str(tmp_path), **executor,
        policy={"chaos": plan, "hang_timeout": 1.0},
    )
    by_id = {r.job.job_id: r for r in report.results}
    assert set(_statuses(report).values()) == {"EXACT"}
    assert by_id[jobs[0].job_id].attempts == 2
    assert by_id[jobs[1].job_id].attempts == 1
    assert report.metrics.counters["farm.supervise.hang"] == 1
    assert report.wall_s < 30.0  # nobody waited for the 60s sleep


@pytest.mark.parametrize("executor", PROCESS_EXECUTORS, indirect=True)
def test_abort_on_a_hang_does_not_wait_for_it(s1, jobs, executor, tmp_path):
    """A hang that trips the quarantine limit aborts at once: the hung
    worker is terminated before the abort, not waited on."""
    plan = ChaosPlan().hang(jobs[0].job_id, seconds=60.0)
    started = time.monotonic()
    with pytest.raises(ReproError, match="quarantine limit"):
        _supervise(
            s1, jobs, str(tmp_path), **executor,
            policy={
                "chaos": plan, "hang_timeout": 1.0,
                "max_retries": 0, "max_quarantine": 0,
            },
        )
    assert time.monotonic() - started < 30.0


def test_a_crash_redispatches_innocent_units_first(s1, monkeypatch):
    """A pool rebuild sends the units that were in flight beside the
    crash back out ahead of units never dispatched yet."""
    dispatched = []

    class ScriptedPool:
        """A process pool double: the first unit's worker dies, the
        second unit is still running at that moment, and every later
        unit runs in this thread."""

        def __init__(self, max_workers):
            self._processes = {}

        def submit(self, fn, *args):
            dispatched.append([job.job_id for job in args[2]])
            future = Future()
            if len(dispatched) == 1:
                future.set_exception(BrokenProcessPool("scripted crash"))
            elif len(dispatched) > 2:
                future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(supervise, "ProcessPoolExecutor", ScriptedPool)
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    assert len(jobs) >= 3
    report = _supervise(s1, jobs, None, workers=2, share=False)

    victim, innocent = dispatched[0], dispatched[1]
    assert dispatched[2] == innocent
    by_id = {r.job.job_id: r for r in report.results}
    assert set(_statuses(report).values()) == {"EXACT"}
    assert by_id[victim[0]].attempts == 2
    assert by_id[innocent[0]].attempts == 1
    assert report.metrics.counters["farm.supervise.pool_rebuild"] == 1
