"""The reproducible benchmark runner behind ``python -m repro.cli bench``.

Runs the paper's scenario suite end to end (synthesis, verification,
simulation and the four-stage explanation pipeline) under a fresh
:class:`~repro.obs.Instrumentation` per iteration, aggregates wall-time
medians/p95s plus work counters per pipeline stage, and packages the
result as a schema-versioned :class:`~repro.obs.BenchReport`
(``BENCH.json``).

Timings come from the spans the pipeline already opens; work counters
come from the stage-attributed metrics the hot paths already record.
The runner adds no instrumentation of its own beyond three outer spans
(``synth``, ``verify``, ``simulate``) and an ``explain`` wrapper.

``measure_calibration`` times a fixed pure-Python workload on the
producing machine; the comparator uses the ratio of calibrations to
normalize baselines recorded on different hardware (a checked-in
baseline from a fast dev box must not fail CI on a slow runner).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from .explain import ACTION, ExplanationEngine
from .obs import (
    BenchReport,
    Instrumentation,
    MetricsRegistry,
    StageRecord,
    percentile,
    stage_records,
)
from .scenarios import Scenario, scenario1, scenario2, scenario3
from .synthesis import Synthesizer
from .verify import verify

__all__ = [
    "BENCH_FAMILIES",
    "SCENARIO_BUILDERS",
    "measure_calibration",
    "run_perline_once",
    "run_scenario_once",
    "run_serve_once",
    "run_bench",
    "format_report",
]

#: The scenario suite the bench runs, in execution order.
SCENARIO_BUILDERS: Dict[str, Callable[[], Scenario]] = {
    "scenario1": scenario1,
    "scenario2": scenario2,
    "scenario3": scenario3,
}

#: Bench families: ``pipeline`` is the classic end-to-end pass
#: (synth/verify/simulate/explain); ``perline`` measures the cold
#: per-line batch under family dispatch against per-job dispatch;
#: ``serve`` pushes a multi-tenant concurrent workload through the
#: serving queue on a warm worker fleet against the FIFO +
#: per-batch-pool path; ``audit`` times the adversarial audit stage on
#: a cold verdict cache against a warm (content-addressed) one.
BENCH_FAMILIES = ("pipeline", "perline", "serve", "audit")

QUICK_REPEAT = 2
FULL_REPEAT = 5

#: The serve family's workload shape: K tenants each submitting B
#: batches concurrently (the issue's 4-tenant contention scenario).
SERVE_TENANTS = 4
SERVE_BATCHES_PER_TENANT = 2
#: Fleet size and per-batch worker cap for the serve family.
SERVE_FLEET_WORKERS = 4
SERVE_BATCH_WORKERS = 2


def _calibration_workload() -> int:
    """A fixed, allocation-free integer workload (~tens of ms)."""
    total = 7
    for i in range(200_000):
        total = (total * 1103515245 + i) % 2_147_483_647
    return total


def measure_calibration(repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of the calibration workload."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_workload()
        best = min(best, time.perf_counter() - start)
    return best


def run_scenario_once(scenario: Scenario, obs: Instrumentation) -> None:
    """One full pipeline pass over ``scenario``, recorded into ``obs``.

    Stages: ``synth`` (sketch -> concrete config), ``verify`` (paper
    config against the specification), ``simulate`` (control-plane
    fixpoint), ``explain`` (every managed router, per requirement
    block; the engine's own ``seed``/``simplify``/``project``/``lift``
    spans nest inside it).
    """
    with obs.span("synth"):
        Synthesizer(scenario.sketch, scenario.specification, obs=obs).synthesize()
    with obs.span("verify"):
        verify(scenario.paper_config, scenario.specification)
    with obs.span("simulate"):
        from .bgp.simulation import simulate

        simulate(scenario.paper_config, obs=obs)
    engine = ExplanationEngine(
        scenario.paper_config, scenario.specification, obs=obs
    )
    with obs.span("explain"):
        for block in scenario.specification.blocks:
            for router in sorted(scenario.specification.managed):
                try:
                    engine.explain_router(
                        router, fields=(ACTION,), requirement=block.name
                    )
                except Exception:
                    # Routers without explainable lines (mirrors the
                    # `report` command); never part of the timing story.
                    continue


def run_perline_once(scenario: Scenario) -> "_PerlineSample":
    """One cold per-line batch, per-job then family-dispatched.

    Both runs are fully cold: no artifact store, and the process's
    shared-cache slot is dropped first so no seed encode or
    simulation survives from a previous iteration.  Answers and cache
    keys must be byte-identical between the two dispatch modes --
    a mismatch fails the bench rather than timing a wrong answer.
    """
    from .farm.job import enumerate_jobs
    from .farm.keys import canonical_json
    from .farm.supervise import run_supervised
    from .farm.worker import reset_shared_slot

    config, spec = scenario.paper_config, scenario.specification
    jobs = enumerate_jobs(config, spec, per_line=True)

    def answers(report):
        return {
            result.job.job_id: canonical_json({**result.explanation, "timings": {}})
            for result in report.results
        }

    reset_shared_slot()
    solo = run_supervised(config, spec, jobs, cache_dir=None, share=False)
    reset_shared_slot()
    shared = run_supervised(config, spec, jobs, cache_dir=None, share=True)
    reset_shared_slot()
    if answers(solo) != answers(shared):
        raise RuntimeError("family dispatch changed an answer payload")
    if [r.key for r in solo.results] != [r.key for r in shared.results]:
        raise RuntimeError("family dispatch changed a cache key")
    counters = {
        name: value
        for name, value in shared.metrics.counters.items()
        if name == "farm.families"
    }
    return _PerlineSample(solo.wall_s, shared.wall_s, counters)


class _PerlineSample:
    """Wall times and the family counter of one cold per-line iteration."""

    def __init__(self, solo_s: float, shared_s: float, counters: Dict[str, int]):
        self.solo_s = solo_s
        self.shared_s = shared_s
        self.counters = counters


def _perline_records(
    scenario_name: str,
    samples: Sequence[_PerlineSample],
) -> List[StageRecord]:
    """Two records per scenario: family dispatch and the per-job control.

    ``perline`` (the gated stage) is the cold wall time of the
    family-dispatched batch; ``perline.solo`` is per-job dispatch over
    the same jobs, so the speedup is the ratio of the two medians.
    Counters are totalled over all runs, like every other stage.
    """
    shared = [sample.shared_s for sample in samples]
    solo = [sample.solo_s for sample in samples]
    counters: Dict[str, int] = {}
    for sample in samples:
        for name, value in sample.counters.items():
            counters[name] = counters.get(name, 0) + value
    return [
        StageRecord(
            scenario=scenario_name,
            stage="perline",
            runs=len(samples),
            median_s=percentile(shared, 0.50),
            p95_s=percentile(shared, 0.95),
            total_s=sum(shared),
            counters=counters,
        ),
        StageRecord(
            scenario=scenario_name,
            stage="perline.solo",
            runs=len(samples),
            median_s=percentile(solo, 0.50),
            p95_s=percentile(solo, 0.95),
            total_s=sum(solo),
            counters={},
        ),
    ]


def run_audit_once(scenario: Scenario) -> "_AuditSample":
    """One audited batch on a cold verdict cache, then warm.

    Both passes run the same jobs with ``audit=True`` against one
    fresh artifact store: the first pays the full adversarial loop
    (suite generation + concrete replay per subspec), the second must
    serve every verdict from the content-addressed ``audit`` stage.
    A verdict that differs between the passes -- or a warm pass that
    re-ran a suite -- fails the bench rather than timing a lie.
    """
    import shutil
    import tempfile

    from .farm.job import enumerate_jobs
    from .farm.keys import FarmOptions
    from .farm.supervise import run_supervised
    from .farm.worker import reset_shared_slot

    config, spec = scenario.paper_config, scenario.specification
    jobs = enumerate_jobs(config, spec)
    options = FarmOptions(audit=True)
    tmp = tempfile.mkdtemp(prefix="repro-bench-audit-")
    try:
        reset_shared_slot()
        cold = run_supervised(config, spec, jobs, options=options, cache_dir=tmp)
        reset_shared_slot()
        warm = run_supervised(config, spec, jobs, options=options, cache_dir=tmp)
        reset_shared_slot()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if [r.audit for r in cold.results] != [r.audit for r in warm.results]:
        raise RuntimeError("warm audit cache changed a verdict")
    if warm.metrics.counters.get("audit.suites", 0):
        raise RuntimeError("warm audit pass re-ran a suite instead of "
                           "hitting the verdict cache")
    counters = {
        name: value
        for name, value in cold.metrics.counters.items()
        if name.startswith("audit.")
    }
    for name, value in warm.metrics.counters.items():
        if name.startswith("audit."):
            counters[name] = counters.get(name, 0) + value
    return _AuditSample(cold.wall_s, warm.wall_s, counters)


class _AuditSample:
    """Wall times and audit counters of one cold/warm iteration."""

    def __init__(self, cold_s: float, warm_s: float, counters: Dict[str, int]):
        self.cold_s = cold_s
        self.warm_s = warm_s
        self.counters = counters


def _audit_records(
    scenario_name: str,
    samples: Sequence[_AuditSample],
) -> List[StageRecord]:
    """Two records per scenario: the cold audit and the warm replay.

    ``audit`` (the gated stage) is the wall time of the audited batch
    on an empty verdict cache; ``audit.warm`` replays it against the
    populated store, so the cache's payoff is the ratio of the two
    medians.  Counters are totalled over all runs.
    """
    cold = [sample.cold_s for sample in samples]
    warm = [sample.warm_s for sample in samples]
    counters: Dict[str, int] = {}
    for sample in samples:
        for name, value in sample.counters.items():
            counters[name] = counters.get(name, 0) + value
    return [
        StageRecord(
            scenario=scenario_name,
            stage="audit",
            runs=len(samples),
            median_s=percentile(cold, 0.50),
            p95_s=percentile(cold, 0.95),
            total_s=sum(cold),
            counters=counters,
        ),
        StageRecord(
            scenario=scenario_name,
            stage="audit.warm",
            runs=len(samples),
            median_s=percentile(warm, 0.50),
            p95_s=percentile(warm, 0.95),
            total_s=sum(warm),
            counters={},
        ),
    ]


class _ServeSample:
    """One iteration of the multi-tenant serving workload.

    Wall times for the three paths (seed FIFO + per-batch pools, cold
    fleet, warm fleet), plus per-job queue-wait and end-to-end latency
    samples from the warm-fleet pass and the interesting counters.
    """

    def __init__(
        self,
        fifo_s: float,
        cold_s: float,
        warm_s: float,
        waits: List[float],
        e2e: List[float],
        results: int,
        counters: Dict[str, int],
    ):
        self.fifo_s = fifo_s
        self.cold_s = cold_s
        self.warm_s = warm_s
        self.waits = waits
        self.e2e = e2e
        self.results = results
        self.counters = counters


def _verify_served(jobs, reference: str) -> int:
    """Every job finished ``DONE`` with the reference document bytes.

    The serving layer's contract is that a served batch is
    byte-identical (timings normalized) to ``explain-all --json`` on
    the same cache; a divergence fails the bench rather than timing a
    wrong answer.  Returns the total per-line results served.
    """
    from . import api
    from .farm.report import dump_document, normalize_document

    total = 0
    for job in jobs:
        if job.state != api.STATE_DONE or job.report is None:
            raise RuntimeError(
                f"serve bench job {job.id} ended {job.state}: {job.error}"
            )
        document = dump_document(normalize_document(dict(job.report.document)))
        if document != reference:
            raise RuntimeError(
                f"served document for {job.id} diverged from explain-all --json"
            )
        total += len(job.report.results)
    return total


def run_serve_once(
    scenario_name: str, cache_dir: str, reference: str
) -> _ServeSample:
    """One pass of the K-tenant concurrent workload, three ways.

    The workload is :data:`SERVE_TENANTS` tenants each submitting
    :data:`SERVE_BATCHES_PER_TENANT` batches of ``scenario_name`` at
    once.  It runs first on the seed path (one FIFO runner, a process
    pool forked per batch), then twice on a freshly spawned
    :class:`~repro.farm.fleet.WorkerFleet` behind a fair-share queue --
    the first fleet pass is cold (workers just forked), the second is
    warm (resident stores and caches).  Every served document must be
    byte-identical to ``reference``.
    """
    import gc

    from . import api
    from .farm.fleet import WorkerFleet
    from .serve.queue import JobQueue, RetentionPolicy
    from .serve.tenants import TenantBook

    request = api.ExplainRequest(
        scenario=scenario_name, workers=SERVE_BATCH_WORKERS
    )
    # Evict terminal jobs immediately: retained result documents are
    # megabytes of live parent heap, and carrying one pass's reports
    # into the next skews it (slower forks, more GC).  Each pass is
    # verified from local references, then released.
    retention = RetentionPolicy(max_completed=0)

    def workload(queue: JobQueue):
        start = time.perf_counter()
        jobs = []
        for _ in range(SERVE_BATCHES_PER_TENANT):
            for index in range(SERVE_TENANTS):
                jobs.append(queue.submit(request, tenant=f"tenant-{index}"))
        for job in jobs:
            # Blocks until the job is terminal (the event stream's end).
            queue.events_since(job.id, 1 << 30, timeout=None)
        return time.perf_counter() - start, jobs

    # The seed path: global FIFO, per-batch process pools.
    fifo = JobQueue(cache_dir=cache_dir, concurrency=1, retention=retention)
    try:
        fifo_s, fifo_jobs = workload(fifo)
    finally:
        fifo.drain(timeout=60.0)
    _verify_served(fifo_jobs, reference)
    del fifo, fifo_jobs
    gc.collect()

    # The fleet path: shared warm workers, fair-share concurrent batches.
    metrics = MetricsRegistry()
    fleet = WorkerFleet(SERVE_FLEET_WORKERS, metrics=metrics)
    queue = JobQueue(
        cache_dir=cache_dir,
        metrics=metrics,
        tenants=TenantBook(),
        concurrency=SERVE_TENANTS,
        fleet=fleet,
        retention=retention,
    )
    try:
        cold_s, cold_jobs = workload(queue)
        _verify_served(cold_jobs, reference)
        del cold_jobs
        gc.collect()
        warm_s, warm_jobs = workload(queue)
        residency = dict(fleet.stats().residency)
    finally:
        queue.drain(timeout=60.0)
        fleet.close()
    results = _verify_served(warm_jobs, reference)

    waits = [
        max(0.0, (job.started_at or 0.0) - job.submitted_at)
        for job in warm_jobs
    ]
    e2e = [
        max(0.0, (job.finished_at or 0.0) - job.submitted_at)
        for job in warm_jobs
    ]
    counters = {
        name: value
        for name, value in metrics.counters.items()
        if name.startswith(("serve.", "farm.fleet."))
    }
    for name, value in residency.items():
        key = f"farm.fleet.{name}"
        counters[key] = counters.get(key, 0) + value
    return _ServeSample(fifo_s, cold_s, warm_s, waits, e2e, results, counters)


def _serve_records(
    scenario_name: str,
    samples: Sequence[_ServeSample],
) -> List[StageRecord]:
    """Five records per scenario for the serving workload.

    ``serve`` (the gated stage) is the warm-fleet wall time of the
    whole workload; ``serve.cold`` is the same workload on a
    just-forked fleet, ``serve.fifo`` the seed FIFO + per-batch-pool
    control (speedup = ``serve.fifo`` / ``serve``).  ``serve.wait``
    and ``serve.e2e`` aggregate per-job queue-wait and end-to-end
    latency samples from the warm pass (their p95s are the tail the
    issue asks for).  Throughput in jobs/sec is
    ``serve.results / total_s`` of the ``serve`` record.
    """
    warm = [sample.warm_s for sample in samples]
    cold = [sample.cold_s for sample in samples]
    fifo = [sample.fifo_s for sample in samples]
    waits = [value for sample in samples for value in sample.waits]
    e2e = [value for sample in samples for value in sample.e2e]
    counters: Dict[str, int] = {"serve.results": 0}
    for sample in samples:
        counters["serve.results"] += sample.results
        for name, value in sample.counters.items():
            counters[name] = counters.get(name, 0) + value
    return [
        StageRecord(
            scenario=scenario_name,
            stage="serve",
            runs=len(samples),
            median_s=percentile(warm, 0.50),
            p95_s=percentile(warm, 0.95),
            total_s=sum(warm),
            counters=counters,
        ),
        StageRecord(
            scenario=scenario_name,
            stage="serve.cold",
            runs=len(samples),
            median_s=percentile(cold, 0.50),
            p95_s=percentile(cold, 0.95),
            total_s=sum(cold),
            counters={},
        ),
        StageRecord(
            scenario=scenario_name,
            stage="serve.fifo",
            runs=len(samples),
            median_s=percentile(fifo, 0.50),
            p95_s=percentile(fifo, 0.95),
            total_s=sum(fifo),
            counters={},
        ),
        StageRecord(
            scenario=scenario_name,
            stage="serve.wait",
            runs=len(waits),
            median_s=percentile(waits, 0.50),
            p95_s=percentile(waits, 0.95),
            total_s=sum(waits),
            counters={},
        ),
        StageRecord(
            scenario=scenario_name,
            stage="serve.e2e",
            runs=len(e2e),
            median_s=percentile(e2e, 0.50),
            p95_s=percentile(e2e, 0.95),
            total_s=sum(e2e),
            counters={},
        ),
    ]


def _serve_bench(scenario_name: str, runs: int) -> List[StageRecord]:
    """The serve family for one scenario: warm a cache, run, record.

    Each scenario gets a throwaway artifact store, warm-filled once by
    a direct :func:`repro.api.explain_batch` pass; a second direct
    pass yields the warm reference document every served batch must
    reproduce byte-for-byte (the served batches hit the warm store, so
    the reference must be the cached-status document, not the cold
    one).
    """
    import tempfile

    from . import api
    from .farm.report import dump_document, normalize_document

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as cache_dir:
        request = api.ExplainRequest(
            scenario=scenario_name,
            workers=SERVE_BATCH_WORKERS,
            cache_dir=cache_dir,
        )
        api.explain_batch(request)
        warm = api.explain_batch(request)
        reference = dump_document(normalize_document(dict(warm.document)))
        samples = [
            run_serve_once(scenario_name, cache_dir, reference)
            for _ in range(runs)
        ]
    return _serve_records(scenario_name, samples)


def run_bench(
    scenarios: Optional[Sequence[str]] = None,
    repeat: Optional[int] = None,
    quick: bool = False,
    families: Optional[Sequence[str]] = None,
) -> BenchReport:
    """Run the suite and return the aggregated report.

    ``scenarios`` defaults to the full suite; ``repeat`` defaults to
    2 iterations in ``--quick`` mode and 5 otherwise; ``families``
    defaults to every family in :data:`BENCH_FAMILIES`.
    """
    names = list(scenarios) if scenarios else list(SCENARIO_BUILDERS)
    for name in names:
        if name not in SCENARIO_BUILDERS:
            known = ", ".join(sorted(SCENARIO_BUILDERS))
            raise ValueError(f"unknown bench scenario {name!r}; known: {known}")
    chosen = list(families) if families else list(BENCH_FAMILIES)
    for family in chosen:
        if family not in BENCH_FAMILIES:
            known = ", ".join(BENCH_FAMILIES)
            raise ValueError(f"unknown bench family {family!r}; known: {known}")
    runs = repeat if repeat is not None else (QUICK_REPEAT if quick else FULL_REPEAT)
    if runs < 1:
        raise ValueError(f"repeat must be positive, got {runs}")

    stages: List[StageRecord] = []
    for name in names:
        scenario = SCENARIO_BUILDERS[name]()
        if "pipeline" in chosen:
            merged = MetricsRegistry()
            for _ in range(runs):
                obs = Instrumentation()
                run_scenario_once(scenario, obs)
                merged.merge(obs.metrics)
            stages.extend(stage_records(name, merged))
        if "perline" in chosen:
            samples = [run_perline_once(scenario) for _ in range(runs)]
            stages.extend(_perline_records(name, samples))
        if "serve" in chosen:
            stages.extend(_serve_bench(name, runs))
        if "audit" in chosen:
            audit_samples = [run_audit_once(scenario) for _ in range(runs)]
            stages.extend(_audit_records(name, audit_samples))

    return BenchReport(
        stages=stages,
        source="repro.cli bench",
        quick=quick,
        repeat=runs,
        calibration_s=measure_calibration(),
    )


#: Counters surfaced in the rendered table (full set stays in the JSON).
_HEADLINE_COUNTERS = (
    "sat.conflicts",
    "sat.propagations",
    "rewrite.steps",
    "encode.candidates",
    "project.assignments",
    "lift.candidates_evaluated",
    "simulate.rounds",
    "farm.families",
    "serve.results",
    "serve.sched.dispatch",
    "farm.fleet.shared_warm_hits",
    "farm.fleet.store_resident_hits",
    "audit.suites",
    "audit.cases",
    "audit.cache.hits",
)


def format_report(report: BenchReport) -> str:
    """Render ``report`` as the table the CLI prints."""
    lines = [
        f"bench: {report.repeat} run(s) per scenario"
        + (" [quick]" if report.quick else "")
        + (
            f", calibration {report.calibration_s * 1000:.1f}ms"
            if report.calibration_s is not None
            else ""
        )
    ]
    header = f"{'scenario':<12} {'stage':<10} {'runs':>4} {'median':>9} {'p95':>9} {'total':>9}  work"
    lines.append(header)
    lines.append("-" * len(header))
    for record in report.stages:
        work = ", ".join(
            f"{counter.split('.', 1)[1]}={record.counters[counter]}"
            for counter in _HEADLINE_COUNTERS
            if counter in record.counters
        )
        lines.append(
            f"{record.scenario:<12} {record.stage:<10} {record.runs:>4} "
            f"{record.median_s * 1000:>7.1f}ms {record.p95_s * 1000:>7.1f}ms "
            f"{record.total_s * 1000:>7.1f}ms  {work}"
        )
    return "\n".join(lines)
