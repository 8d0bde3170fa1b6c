"""Stored answers carried as canonical JSON text (``StoredPayload``).

Warm hits, freshly saved EXACT answers, incremental clean jobs and
journal replay all hand back a :class:`StoredPayload`: a read-only
mapping over the payload's canonical JSON text, decoded on first
access and pickled as the text alone.  These tests hold it to "a dict
in every way a caller can observe", and hold every executor to the
same batch bytes.
"""

import json
import pickle
from types import MappingProxyType

import pytest

from repro import api
from repro.farm import ArtifactStore, StoredPayload, canonical_json
from repro.farm.fleet import WorkerFleet
from repro.farm.job import ExplainJob
from repro.farm.supervise import _result_from_payload, _result_payload
from repro.farm.worker import JobResult

PAYLOAD = {
    "schema": "demo/1",
    "subspec": {"lines": ["a", "b"], "holes": 2},
    "timings": {},
    "weight": 0.5,
    "missing": None,
}


def _stored(payload=PAYLOAD):
    return StoredPayload(canonical_json(payload))


class TestMapping:
    def test_equals_the_dict_both_ways(self):
        stored = _stored()
        assert stored == PAYLOAD
        assert PAYLOAD == stored
        assert stored == _stored()
        assert stored != {**PAYLOAD, "weight": 1.5}
        assert {**PAYLOAD, "weight": 1.5} != stored

    def test_dict_and_json_round_trip(self):
        stored = _stored()
        assert dict(stored) == PAYLOAD
        assert json.loads(json.dumps(dict(stored))) == PAYLOAD
        assert {**stored, "timings": {}} == PAYLOAD
        assert canonical_json(stored) == stored.text
        assert canonical_json({"nested": stored}) == canonical_json(
            {"nested": PAYLOAD}
        )

    def test_read_only_and_lazy(self):
        stored = _stored()
        assert stored._decoded is None
        assert len(stored) == len(PAYLOAD)
        assert stored._decoded is not None
        with pytest.raises(TypeError):
            stored["schema"] = "other"  # type: ignore[index]

    def test_canonical_json_still_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_json({"bad": object()})


class TestPickle:
    @pytest.mark.parametrize(
        "protocol", range(2, pickle.HIGHEST_PROTOCOL + 1)
    )
    def test_round_trips_as_the_text_alone(self, protocol):
        stored = _stored()
        cold = pickle.dumps(stored, protocol=protocol)
        stored["subspec"]  # decode; the pickle must not grow
        warm = pickle.dumps(stored, protocol=protocol)
        assert warm == cold
        clone = pickle.loads(warm)
        assert isinstance(clone, StoredPayload)
        assert clone.text == stored.text
        assert clone._decoded is None
        assert clone == PAYLOAD
        # Nothing but the text (and the class reference) is carried.
        assert len(cold) < len(stored.text) + 96


class TestJournal:
    @pytest.mark.parametrize(
        "mapping",
        [dict(PAYLOAD), _stored(), MappingProxyType(dict(PAYLOAD))],
        ids=["dict", "stored", "proxy"],
    )
    def test_result_payload_accepts_any_mapping(self, mapping):
        job = ExplainJob(device="R1", requirement="Req1")
        # A degraded answer is journaled inline.
        inline = JobResult(
            job=job, key="ab" * 32, status="DEGRADED_LIFT", cached=False,
            duration_s=0.0, explanation=mapping,
        )
        record = json.loads(canonical_json(_result_payload(inline)))
        assert record["stored"] is False
        assert record["explanation"] == PAYLOAD
        replayed = _result_from_payload(record, None)
        assert replayed is not None and replayed.explanation == PAYLOAD

    def test_stored_answers_replay_as_stored_payloads(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "cd" * 32
        store.save(key, "explanation", PAYLOAD)
        job = ExplainJob(device="R1", requirement="Req1")
        result = JobResult(
            job=job, key=key, status="CACHED", cached=True,
            duration_s=0.0, explanation=_stored(),
        )
        record = json.loads(canonical_json(_result_payload(result)))
        assert record["stored"] is True and record["explanation"] is None
        replayed = _result_from_payload(record, store)
        assert isinstance(replayed.explanation, StoredPayload)
        assert replayed.explanation._decoded is None
        assert replayed.explanation == PAYLOAD


def _batch_json(report):
    """``BatchReport.to_json()`` with run-specific fields zeroed: wall
    clocks, durations and the executor's worker count."""
    from repro.farm.report import normalize_document

    payload = json.loads(report.to_json())
    payload["wall_s"] = 0.0
    payload["workers"] = 0
    for row in payload["results"]:
        row["duration_s"] = 0.0
    document = normalize_document(payload["document"])
    document["workers"] = 0
    payload["document"] = document
    return json.dumps(payload, sort_keys=True)


class TestExecutorsAgree:
    def test_warm_batch_json_is_identical_on_every_executor(self, tmp_path):
        cache_dir = str(tmp_path / "cache")

        def run(workers, fleet=None):
            request = api.ExplainRequest(
                scenario="scenario1", cache_dir=cache_dir, workers=workers
            )
            return api.explain_batch(request, fleet=fleet)

        cold = run(1)
        assert {r.status for r in cold.results} == {"EXACT"}
        # Fresh EXACT answers already travel as stored text.
        assert all(isinstance(r.explanation, StoredPayload) for r in cold.results)
        serial = run(1)
        pool = run(2)
        with WorkerFleet(2) as fleet:
            fleet_report = run(2, fleet=fleet)
        for report in (serial, pool, fleet_report):
            assert {r.status for r in report.results} == {"CACHED"}
            assert all(
                isinstance(r.explanation, StoredPayload) for r in report.results
            )
        assert _batch_json(pool) == _batch_json(serial)
        assert _batch_json(fleet_report) == _batch_json(serial)
        assert [r.explanation for r in serial.results] == [
            r.explanation for r in cold.results
        ]
