"""Family dispatch: shared caches and byte-identity.

The tentpole invariant of family dispatch is *byte-identity*: grouping
sibling jobs onto one worker's shared caches (seed encodes,
simulations, statement terms) must never change a single
byte of any answer payload or cache key.  These tests compare shared
runs against solo runs across scenarios and dispatch modes.  The SAT
encoding's agreement with projection is checked per job in
``tests/explain/test_sat_agreement.py``.
"""

import pytest

from repro.explain import ExplanationEngine, SharedCaches
from repro.farm import (
    FarmOptions,
    SupervisePolicy,
    enumerate_jobs,
    group_families,
    job_key,
)
from repro.farm.supervise import run_supervised
from repro.farm.keys import canonical_json
from repro.farm.worker import _answer_payload, run_family, shared_batch_key
from repro.scenarios import scenario1, scenario2, scenario3

SCENARIOS = {
    "scenario1": scenario1,
    "scenario2": scenario2,
    "scenario3": scenario3,
}


@pytest.fixture(autouse=True)
def _fresh_shared_slot():
    """Reset the worker's process-global shared-cache slot.

    Serial batches run in the test process itself; without a reset,
    seed encodes made by one test would serve the next test's jobs and
    its shared-cache counters would depend on test order.
    """
    from repro.farm import reset_shared_slot

    reset_shared_slot()
    yield
    reset_shared_slot()


def _answers(report):
    return {
        result.job.job_id: canonical_json(result.explanation)
        for result in report.results
    }


def _seed_encodes(report):
    """Shared seed encodes, whatever stage the counter was made in."""
    return sum(
        value
        for name, value in report.metrics.counters.items()
        if name.endswith("engine.family.seed_encodes")
    )


# -- grouping ----------------------------------------------------------------


def test_group_families_partitions_in_first_appearance_order(s1):
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    families = group_families(jobs)
    regrouped = [job for family in families for job in family.jobs]
    assert sorted(regrouped, key=id) == sorted(jobs, key=id)
    keys = [family.key for family in families]
    assert len(set(keys)) == len(keys)
    for family in families:
        devices = {job.device for job in family.jobs}
        requirements = {job.requirement for job in family.jobs}
        assert len(devices) == 1 and len(requirements) == 1
    assert [family.index for family in families] == list(range(len(families)))


def test_router_jobs_form_singleton_families(s1):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    families = group_families(jobs)
    assert all(len(family) == 1 for family in families)


def test_empty_family_rejected():
    from repro.farm.job import JobFamily

    with pytest.raises(ValueError):
        JobFamily(index=0, jobs=())


# -- engine-level byte-identity ---------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_shared_engine_answers_are_byte_identical(name):
    scenario = SCENARIOS[name]()
    config, spec = scenario.paper_config, scenario.specification
    jobs = enumerate_jobs(config, spec, per_line=True)
    shared = SharedCaches(config, spec)
    for job in jobs:
        solo = _answer_payload(job.run(ExplanationEngine(config, spec)))
        via_shared = _answer_payload(
            job.run(ExplanationEngine(config, spec, shared=shared))
        )
        assert canonical_json(solo) == canonical_json(via_shared), job.job_id


def test_shared_engine_rejects_governor(s1):
    from repro.runtime import Governor

    with pytest.raises(ValueError):
        ExplanationEngine(
            s1.paper_config,
            s1.specification,
            shared=SharedCaches(s1.paper_config, s1.specification),
            governor=Governor.of(timeout=10.0),
        )


# -- farm-level byte-identity ------------------------------------------------


def test_family_batch_matches_per_job_batch(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    solo = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path / "solo"), share=False,
    )
    family = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path / "family"), share=True,
    )
    assert [r.job for r in family.results] == jobs
    assert _answers(solo) == _answers(family)
    assert [r.key for r in solo.results] == [r.key for r in family.results]


def test_family_batch_parallel_matches_serial(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    serial = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path / "serial"),
    )
    parallel = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path / "parallel"), workers=2,
    )
    assert _answers(serial) == _answers(parallel)


def test_warm_family_run_is_all_cache_hits(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    run_supervised(s1.paper_config, s1.specification, jobs, cache_dir=str(tmp_path))
    warm = run_supervised(
        s1.paper_config, s1.specification, jobs, cache_dir=str(tmp_path)
    )
    assert all(r.cached for r in warm.results)
    # Served answers never touch the pipeline, so no seed encodes.
    assert _seed_encodes(warm) == 0


# -- when sharing is on ------------------------------------------------------


def test_ungoverned_batch_shares_caches_and_opens_no_sat_session(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    families = group_families(jobs)
    report = run_supervised(
        s1.paper_config, s1.specification, jobs, cache_dir=str(tmp_path)
    )
    assert report.to_dict()["counters"]["farm.families"] == len(families)
    assert _seed_encodes(report) == len(jobs)
    # Answers come from simulation-based projection alone: no SAT
    # session is opened on the production path.
    assert not any("smt.session." in name for name in report.metrics.counters)


def test_governed_batch_disables_sharing(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    report = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path), budget=10_000_000,
    )
    assert _seed_encodes(report) == 0


# -- run_family directly ----------------------------------------------------


def test_run_family_preserves_job_keys_and_order(s1, tmp_path):
    options = FarmOptions()
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    family = group_families(jobs)[0]
    results = run_family(
        s1.paper_config, s1.specification, family.jobs,
        options=options, cache_dir=str(tmp_path),
        shared_key=shared_batch_key(s1.paper_config, s1.specification, options),
    )
    assert [r.job for r in results] == list(family.jobs)
    for result in results:
        assert result.key == job_key(
            s1.paper_config, s1.specification, result.job, options
        )
    assert results[0].metrics.counters["farm.families"] == 1


def test_shared_batch_key_pins_config_spec_and_options(s1, s2_like=None):
    base = shared_batch_key(s1.paper_config, s1.specification)
    assert base == shared_batch_key(s1.paper_config, s1.specification)
    other_options = shared_batch_key(
        s1.paper_config, s1.specification, FarmOptions(ibgp=True)
    )
    assert other_options != base
    other_scenario = scenario3()
    assert base != shared_batch_key(
        other_scenario.paper_config, other_scenario.specification
    )


# -- supervised family dispatch ---------------------------------------------


def test_supervised_family_run_matches_unshared(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    shared = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path / "shared"), workers=2,
    )
    unshared = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path / "unshared"), workers=2, share=False,
    )
    assert _answers(shared) == _answers(unshared)
    assert shared.completed == len(jobs)


def test_supervised_family_retry_after_flaky_member(s1, tmp_path):
    from repro.runtime import ChaosPlan

    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    flaky_id = jobs[0].job_id
    report = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path),
        policy=SupervisePolicy(
            backoff_base=0.0, chaos=ChaosPlan.parse(f"flaky@{flaky_id}")
        ),
    )
    assert report.completed == len(jobs)
    by_id = {r.job.job_id: r for r in report.results}
    assert by_id[flaky_id].attempts == 2
    reference = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path / "ref"), share=False,
    )
    assert _answers(report) == _answers(reference)


def test_supervised_resume_redispatches_only_unfinished_members(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    first = run_supervised(
        s1.paper_config, s1.specification, jobs, cache_dir=str(tmp_path)
    )
    resumed = run_supervised(
        s1.paper_config, s1.specification, jobs,
        cache_dir=str(tmp_path), policy=SupervisePolicy(resume=True),
    )
    assert resumed.metrics.counters["farm.supervise.resumed"] == len(jobs)
    assert _answers(first) == _answers(resumed)
