"""Each stage payload is encoded once per job.

The engine hands the seed, simplify, projected and lift payloads it
saved through its stage store on to the answer encoder
(:meth:`ExplanationEngine.take_saved_stages`), which embeds them
instead of encoding the same artifacts again.  That must not change a
byte: for every case-study job (per-router and per-line) the answer
must have the canonical JSON of a full re-encode.  Cache hits, relift
answers and store-less engines have no saved payloads and encode as
before, and the engine keeps no payload once it has handed it on.
"""

import pytest

from repro.explain import ExplanationEngine
from repro.explain.serialize import explanation_to_dict
from repro.farm.job import enumerate_jobs
from repro.farm.keys import FarmOptions, canonical_json, job_key
from repro.farm.store import ArtifactStore, JobStore
from repro.farm.worker import _answer_payload
from repro.scenarios import scenario1, scenario2, scenario3
from repro.scenarios.campus import campus_scenario

SCENARIOS = [scenario1, scenario2, scenario3, campus_scenario]
STAGES = {"seed", "simplify", "projected", "lift"}
ANSWER_FIELDS = {
    "seed": "seed",
    "simplify": "simplified",
    "projected": "projected",
    "lift": "lift",
}


class _RecordingStore:
    """A stage store that keeps what the engine saves and loads nothing."""

    def __init__(self):
        self.saved = {}

    def load(self, stage):
        return None

    def save(self, stage, payload):
        self.saved[stage] = payload


@pytest.mark.parametrize("per_line", [False, True], ids=["router", "line"])
@pytest.mark.parametrize("build", SCENARIOS, ids=lambda build: build.__name__)
def test_answers_embed_the_saved_stages_byte_identically(build, per_line):
    scenario = build()
    config, specification = scenario.paper_config, scenario.specification
    jobs = enumerate_jobs(config, specification, per_line=per_line)
    assert jobs
    for job in jobs:
        store = _RecordingStore()
        engine = ExplanationEngine(config, specification, stage_store=store)
        explanation = job.run(engine)
        assert not explanation.status.degraded
        saved = engine.take_saved_stages(explanation)
        assert set(saved) == STAGES
        assert all(saved[stage] is store.saved[stage] for stage in STAGES)
        answer = explanation_to_dict(explanation, saved)
        for stage, field in ANSWER_FIELDS.items():
            assert answer[field] is saved[stage]
        assert canonical_json(answer) == canonical_json(explanation_to_dict(explanation))
        # Handed on once; the engine keeps nothing.
        assert engine.take_saved_stages(explanation) == {}


def test_the_worker_answer_is_a_full_encode_without_timings(tmp_path):
    scenario = scenario1()
    config, specification = scenario.paper_config, scenario.specification
    options = FarmOptions()
    store = ArtifactStore(str(tmp_path))
    for job in enumerate_jobs(config, specification, per_line=True):
        key = job_key(config, specification, job, options)
        engine = ExplanationEngine(config, specification, stage_store=JobStore(store, key))
        explanation = job.run(engine)
        expected = explanation.to_dict()
        expected["timings"] = {}
        saved = engine.take_saved_stages(explanation)
        assert set(saved) == STAGES
        assert canonical_json(_answer_payload(explanation, saved)) == canonical_json(expected)


def test_cache_hits_relift_and_store_less_engines_encode_in_full():
    scenario = scenario1()
    config, specification = scenario.paper_config, scenario.specification
    job = enumerate_jobs(config, specification)[0]

    engine = ExplanationEngine(config, specification, stage_store=_RecordingStore())
    first = job.run(engine)
    # The answer cache hands back the same explanation; nothing saved
    # for it is still held.
    again = job.run(engine)
    assert again is first
    assert engine.take_saved_stages(first) == {}

    sketch, holes = job.symbolize(config)
    relifted = engine.relift(job.device, sketch, holes, job.requirement)
    assert engine.take_saved_stages(relifted) == {}
    assert canonical_json(explanation_to_dict(relifted, {})) == canonical_json(
        explanation_to_dict(relifted)
    )

    store_less = ExplanationEngine(config, specification)
    explanation = job.run(store_less)
    assert store_less.take_saved_stages(explanation) == {}


def test_an_answer_never_takes_another_answers_stages():
    scenario = scenario1()
    config, specification = scenario.paper_config, scenario.specification
    first_job, second_job = enumerate_jobs(config, specification, per_line=True)[:2]
    engine = ExplanationEngine(config, specification, stage_store=_RecordingStore())
    first = first_job.run(engine)
    second = second_job.run(engine)
    assert engine.take_saved_stages(first) == {}
    assert set(engine.take_saved_stages(second)) == STAGES
