"""The per-job runner: isolation, degradation, cache interaction."""

import pickle

from repro.farm import ExplainJob, FarmOptions, enumerate_jobs, run_job
from repro.farm.supervise import run_supervised


def test_failing_job_is_contained(s1):
    """A device with nothing to symbolize errors out by itself."""
    result = run_job(s1.paper_config, s1.specification, ExplainJob("R3"))
    assert result.status == "ERROR"
    assert result.error is not None and "R3" in result.error
    assert result.key is None and result.explanation is None


def test_failing_job_does_not_kill_the_batch(s1):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    poisoned = jobs + [ExplainJob("R3")]
    report = run_supervised(s1.paper_config, s1.specification, poisoned)
    assert report.failed == 1
    assert report.completed == len(jobs)


def test_job_result_is_picklable(s1, tmp_path):
    result = run_job(
        s1.paper_config, s1.specification,
        ExplainJob("R1", requirement="Req1"),
        FarmOptions(), str(tmp_path),
    )
    clone = pickle.loads(pickle.dumps(result))
    assert clone.job == result.job
    assert clone.explanation == result.explanation
    assert clone.metrics.counters == result.metrics.counters


def test_degraded_answers_are_never_cached(s1, tmp_path):
    job = ExplainJob("R1", requirement="Req1")
    starved = run_job(
        s1.paper_config, s1.specification, job, FarmOptions(),
        str(tmp_path), budget=20,
    )
    assert starved.degraded and not starved.cached
    # The next run must not be served the truncated answer.
    rerun = run_job(
        s1.paper_config, s1.specification, job, FarmOptions(), str(tmp_path)
    )
    assert rerun.status == "EXACT" and not rerun.cached


def test_partial_stage_hits_resume_mid_pipeline(s1, tmp_path):
    """Deleting only the final artifacts forces a re-run that resumes
    from the persisted intermediate stages."""
    import os

    from repro.farm import ArtifactStore, job_key

    job = ExplainJob("R1", requirement="Req1")
    options = FarmOptions()
    first = run_job(
        s1.paper_config, s1.specification, job, options, str(tmp_path)
    )
    key = job_key(s1.paper_config, s1.specification, job, options)
    store = ArtifactStore(str(tmp_path))
    os.unlink(store.path_for(key, "explanation"))
    os.unlink(store.path_for(key, "readset"))

    second = run_job(
        s1.paper_config, s1.specification, job, options, str(tmp_path)
    )
    assert second.status == "EXACT" and not second.cached
    hits = {
        name: value
        for name, value in second.metrics.counters.items()
        if name.startswith("farm.store.hit.")
    }
    assert set(hits) >= {
        "farm.store.hit.simplify",
        "farm.store.hit.projected",
        "farm.store.hit.lift",
    }
    assert {**first.explanation, "timings": {}} == {
        **second.explanation, "timings": {},
    }


def test_invalidated_answer_does_not_resume_stale_stages(s1, tmp_path):
    """An edit elsewhere in the network leaves R2's key unchanged but
    invalidates its read-set; the re-run must not resume from the stage
    artifacts the stale answer was built from."""
    from repro.bgp.routemap import RouteMap, RouteMapLine
    from repro.farm.keys import canonical_json

    job = ExplainJob("R2", requirement="Req1")
    run_job(s1.paper_config, s1.specification, job, FarmOptions(), str(tmp_path))
    edited = s1.paper_config.copy()
    routemap = edited.get_map("R1", "out", "P1")
    first, *rest = routemap.lines
    flipped = RouteMapLine(
        seq=first.seq,
        action="deny" if first.action == "permit" else "permit",
        match_attr=first.match_attr, match_value=first.match_value,
        sets=first.sets,
    )
    edited.set_map("R1", "out", "P1", RouteMap(routemap.name, (flipped, *rest)))
    rerun = run_job(edited, s1.specification, job, FarmOptions(), str(tmp_path))
    cold = run_job(edited, s1.specification, job, FarmOptions())
    assert rerun.metrics.counters["farm.cache.invalidated"] == 1
    probe = {"explanation", "readset", "readset-entries"}
    stage_hits = {
        name
        for name in rerun.metrics.counters
        if name.startswith("farm.store.hit.")
        and name[len("farm.store.hit."):] not in probe
    }
    assert not stage_hits
    assert canonical_json({**rerun.explanation, "timings": {}}) == canonical_json(
        {**cold.explanation, "timings": {}}
    )
