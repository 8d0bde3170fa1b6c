"""Batch runs through the supervisor: serial, parallel, warm cache and
incremental (``since``) mode."""

import os

import pytest

from repro.bgp.routemap import RouteMap, RouteMapLine
from repro.farm import enumerate_jobs
from repro.farm.keys import canonical_json
from repro.farm.supervise import Supervisor, run_supervised
from repro.runtime import split_budget


def _answers(report):
    """job -> canonical answer text, timings excluded."""
    return {
        result.job.job_id: canonical_json({**result.explanation, "timings": {}})
        for result in report.results
    }


def _renumber_r2(config):
    edited = config.copy()
    routemap = edited.get_map("R2", "out", "P2")
    lines = tuple(
        RouteMapLine(
            seq=line.seq + 5,
            action=line.action,
            match_attr=line.match_attr,
            match_value=line.match_value,
            sets=line.sets,
        )
        for line in routemap.lines
    )
    edited.set_map("R2", "out", "P2", RouteMap(routemap.name, lines))
    return edited


def test_serial_batch_all_exact(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    report = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path), scenario="scenario1",
    )
    assert [r.status for r in report.results] == ["EXACT"] * len(jobs)
    assert report.completed == len(jobs) and not report.failed
    assert report.stage_cache_rate() == 0.0
    table = report.summary_table()
    assert "R1/router/Req1" in table and "0 degraded, 0 failed" in table


def test_warm_run_is_all_cache_hits(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    cold = run_supervised(
        s1.paper_config, s1.specification, jobs, cache_dir=str(tmp_path)
    )
    warm = run_supervised(
        s1.paper_config, s1.specification, jobs, cache_dir=str(tmp_path)
    )
    assert all(r.cached for r in warm.results)
    assert warm.stage_cache_rate() == 1.0
    assert _answers(warm) == _answers(cold)


def test_no_cache_runs_cold_every_time(s1):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    report = run_supervised(s1.paper_config, s1.specification, jobs, cache_dir=None)
    assert not any(r.cached for r in report.results)
    assert report.stage_cache_rate() is None


def test_parallel_matches_serial(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    serial = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path / "serial"), workers=1,
    )
    parallel = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path / "parallel"), workers=2,
    )
    assert _answers(parallel) == _answers(serial)
    assert parallel.workers == 2
    # Worker metrics were merged: every job contributed its span samples.
    assert len(parallel.metrics.samples("span:seed")) == len(jobs)


def test_bench_compatible_stage_records(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    report = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path), scenario="scenario1",
    )
    bench = report.to_bench_report()
    stages = {record.stage for record in bench.stages}
    assert {"seed", "simplify", "project", "lift"} <= stages
    record = bench.stage("scenario1", "seed")
    assert record is not None and record.runs == len(jobs)
    # The document round-trips through the BENCH schema validator.
    from repro.obs import BenchReport

    assert BenchReport.from_json(bench.to_json()).stage("scenario1", "seed")


def test_budget_split_degrades_jobs_individually(s1):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    shares = split_budget(100, len(jobs))
    assert sum(shares) == 100 and max(shares) - min(shares) <= 1
    report = run_supervised(
        s1.paper_config, s1.specification, jobs, cache_dir=None, budget=40
    )
    # A tiny per-job budget degrades (or fails) jobs, but the batch
    # itself survives and reports every job.
    assert len(report.results) == len(jobs)
    assert all(r.status != "ERROR" for r in report.results)
    assert report.degraded == len(jobs)


def test_incremental_rerun_is_minimal_and_identical(s1, tmp_path):
    """Satellite: edit one line of one device; only that device's jobs
    re-run, and every result is byte-identical to a cold full run."""
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    cache = str(tmp_path / "cache")
    run_supervised(s1.paper_config, s1.specification, jobs, cache_dir=cache)

    edited = _renumber_r2(s1.paper_config)
    incremental = run_supervised(
        edited, s1.specification, jobs, cache_dir=cache,
        since=s1.paper_config,
    )
    reran = {r.job.device for r in incremental.results if not r.cached}
    served = {r.job.device for r in incremental.results if r.cached}
    assert reran == {"R2"}
    assert served == {"R1"}
    counters = incremental.metrics.counters
    assert counters["farm.incremental.dirty"] == len(reran)
    assert counters["farm.incremental.clean"] == len(served)

    cold = run_supervised(
        edited, s1.specification, jobs, cache_dir=str(tmp_path / "cold")
    )
    assert _answers(incremental) == _answers(cold)


def test_incremental_behavior_change_dirties_dependents(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    cache = str(tmp_path)
    run_supervised(s1.paper_config, s1.specification, jobs, cache_dir=cache)

    edited = s1.paper_config.copy()
    routemap = edited.get_map("R2", "out", "P2")
    flipped = tuple(
        RouteMapLine(
            seq=line.seq,
            action="deny" if line.action == "permit" else "permit",
            match_attr=line.match_attr,
            match_value=line.match_value,
            sets=line.sets,
        )
        for line in routemap.lines
    )
    edited.set_map("R2", "out", "P2", RouteMap(routemap.name, flipped))
    incremental = run_supervised(
        edited, s1.specification, jobs, cache_dir=cache,
        since=s1.paper_config,
    )
    assert not any(r.cached for r in incremental.results)


def test_incremental_requires_cache(s1):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    with pytest.raises(ValueError):
        run_supervised(
            s1.paper_config, s1.specification, jobs, cache_dir=None,
            since=s1.paper_config,
        )


def test_default_options_are_not_shared(s1):
    """Regression: a batch entry point used to take a mutable
    FarmOptions() default evaluated once at import time."""
    import inspect

    for function in (run_supervised, Supervisor):
        parameter = inspect.signature(function).parameters["options"]
        assert parameter.default is None


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="parallel speedup needs >1 CPU"
)
def test_parallel_beats_serial_cold(tmp_path):
    from repro.scenarios import scenario3

    s3 = scenario3()
    jobs = enumerate_jobs(s3.paper_config, s3.specification)
    serial = run_supervised(
        s3.paper_config, s3.specification, jobs,
        cache_dir=str(tmp_path / "a"), workers=1,
    )
    parallel = run_supervised(
        s3.paper_config, s3.specification, jobs,
        cache_dir=str(tmp_path / "b"), workers=min(4, os.cpu_count() or 1),
    )
    assert parallel.wall_s < serial.wall_s
