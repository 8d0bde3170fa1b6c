"""The on-disk artifact store: integrity, atomicity, corruption."""

import json
import os

import pytest

from repro.farm import ArtifactStore, StoreError

KEY = "ab" * 32


def test_round_trip(tmp_path):
    store = ArtifactStore(str(tmp_path))
    payload = {"answer": 42, "nested": {"list": [1, 2, 3]}}
    store.save(KEY, "seed", payload)
    assert store.load(KEY, "seed") == payload
    assert store.stats == {"store.seed": 1, "hit.seed": 1}


def test_miss_on_absent_entry(tmp_path):
    store = ArtifactStore(str(tmp_path))
    assert store.load(KEY, "seed") is None
    assert store.stats == {"miss.seed": 1}


def test_corrupt_json_reads_as_miss(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": 1})
    path = store.path_for(KEY, "seed")
    with open(path, "w") as handle:
        handle.write("{not json")
    assert store.load(KEY, "seed") is None
    assert store.stats["corrupt.seed"] == 1


def test_tampered_payload_fails_integrity(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": 1})
    path = store.path_for(KEY, "seed")
    with open(path) as handle:
        envelope = json.load(handle)
    envelope["payload"]["v"] = 2  # integrity hash now stale
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    assert store.load(KEY, "seed") is None
    assert store.stats["corrupt.seed"] == 1


def test_wrong_schema_reads_as_miss(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": 1})
    path = store.path_for(KEY, "seed")
    with open(path) as handle:
        envelope = json.load(handle)
    envelope["schema"] = "repro-farm-store/0"
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    assert store.load(KEY, "seed") is None


def test_malformed_key_and_stage_rejected(tmp_path):
    store = ArtifactStore(str(tmp_path))
    with pytest.raises(StoreError):
        store.path_for("../escape", "seed")
    with pytest.raises(StoreError):
        store.path_for(KEY, "seed/../../etc")
    with pytest.raises(StoreError):
        store.save(KEY, "seed", "not a dict")  # type: ignore[arg-type]


def test_unwritable_cache_degrades_to_no_cache(tmp_path):
    missing = os.path.join(str(tmp_path), "file-not-dir")
    with open(missing, "w") as handle:
        handle.write("occupied")
    store = ArtifactStore(os.path.join(missing, "cache"))
    store.save(KEY, "seed", {"v": 1})  # must not raise
    assert store.load(KEY, "seed") is None


def test_truncated_envelope_reads_as_miss(tmp_path):
    """A torn write (crash mid-copy, truncated download) is a miss --
    and the slot is immediately writable again."""
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": 1, "pad": list(range(64))})
    path = store.path_for(KEY, "seed")
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)
    assert store.load(KEY, "seed") is None
    assert store.stats["corrupt.seed"] == 1
    store.save(KEY, "seed", {"v": 2})
    assert store.load(KEY, "seed") == {"v": 2}


def test_disk_full_leaves_no_half_written_file(tmp_path, monkeypatch):
    """ENOSPC at the atomic-replace step: the write degrades silently
    and neither the target nor any temp file becomes visible."""
    store = ArtifactStore(str(tmp_path))

    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    store.save(KEY, "seed", {"v": 1})  # must not raise
    monkeypatch.undo()
    assert not os.path.exists(store.path_for(KEY, "seed"))
    leftovers = [
        name
        for _, _, names in os.walk(str(tmp_path))
        for name in names
        if name.endswith(".tmp")
    ]
    assert leftovers == []
    assert "store.seed" not in store.stats
    assert store.load(KEY, "seed") is None


def test_tmp_creation_failure_degrades(tmp_path, monkeypatch):
    import tempfile

    store = ArtifactStore(str(tmp_path))

    def no_fd(*args, **kwargs):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(tempfile, "mkstemp", no_fd)
    store.save(KEY, "seed", {"v": 1})  # must not raise
    monkeypatch.undo()
    assert store.load(KEY, "seed") is None


def test_quarantine_ledger_round_trip(tmp_path):
    store = ArtifactStore(str(tmp_path))
    assert store.quarantine_entries() == []
    store.quarantine_add({"job": "a", "attempts": 3})
    store.quarantine_add({"job": "b", "attempts": 2})
    entries = ArtifactStore(str(tmp_path)).quarantine_entries()
    assert [e["job"] for e in entries] == ["a", "b"]
    assert store.stats["quarantine.ledger"] == 2


def test_corrupt_quarantine_ledger_degrades_to_empty(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.quarantine_add({"job": "a"})
    with open(store.quarantine_path, "w") as handle:
        handle.write('{"schema": "repro-farm-quarant')  # torn write
    assert store.quarantine_entries() == []
    store.quarantine_add({"job": "b"})  # re-seeds a fresh ledger
    assert [e["job"] for e in store.quarantine_entries()] == ["b"]


# -- the framed read path ------------------------------------------------
#
# Reads check integrity over the payload slice of the canonical
# envelope as it lies in the file, instead of decoding the envelope and
# re-encoding the payload.  The one intended behaviour change: an
# envelope that decodes fine but is not byte-canonical (say, indented
# by hand) now reads as corrupt and costs a cold re-run of its job,
# where the decode-and-re-digest path used to accept it.


def _legacy_envelope_text(key, stage, payload):
    """What every earlier release wrote for (key, stage, payload)."""
    from repro.farm import canonical_json, digest

    return canonical_json(
        {
            "schema": "repro-farm-store/1",
            "key": key,
            "stage": stage,
            "integrity": digest(payload),
            "payload": payload,
        }
    )


def _legacy_load(path, key, stage):
    """The decode-and-re-digest read path the framed check replaced."""
    from repro.farm import digest

    try:
        with open(path, "r", encoding="ascii") as handle:
            envelope = json.load(handle)
    except (OSError, ValueError):
        return None
    if (
        not isinstance(envelope, dict)
        or envelope.get("schema") != "repro-farm-store/1"
        or envelope.get("key") != key
        or envelope.get("stage") != stage
        or not isinstance(envelope.get("payload"), dict)
        or envelope.get("integrity") != digest(envelope["payload"])
    ):
        return None
    return envelope["payload"]


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """A cache holding every artifact kind one real batch writes."""
    from repro import api

    cache_dir = str(tmp_path_factory.mktemp("filled"))
    report = api.explain_batch(
        api.ExplainRequest(scenario="scenario1", cache_dir=cache_dir, audit=True)
    )
    assert all(r.ok for r in report.results)
    return cache_dir


def _artifacts(cache_dir):
    """(path, key, stage) of every artifact file under ``cache_dir``."""
    found = []
    for root, _, names in os.walk(cache_dir):
        if os.path.basename(root) == "journal":
            continue
        for name in names:
            if name == "quarantine.json" or not name.endswith(".json"):
                continue
            key, stage, _ = name.split(".")
            found.append((os.path.join(root, name), key, stage))
    return sorted(found)


def test_load_matches_the_legacy_path_on_every_artifact(filled_cache):
    from repro.farm import canonical_json

    artifacts = _artifacts(filled_cache)
    stages = {stage for _, _, stage in artifacts}
    assert stages == {"explanation", "readset", "readset-entries", "audit"}
    store = ArtifactStore(filled_cache)
    for path, key, stage in artifacts:
        legacy = _legacy_load(path, key, stage)
        assert legacy is not None, path
        loaded = store.load(key, stage)
        assert loaded == legacy
        assert canonical_json(loaded) == canonical_json(legacy)
        assert store.load_text(key, stage) == canonical_json(legacy)
    assert set(store.stats) == {f"hit.{stage}" for stage in stages}


def test_save_writes_the_canonical_envelope(filled_cache, tmp_path):
    store = ArtifactStore(str(tmp_path))
    for path, key, stage in _artifacts(filled_cache)[:12]:
        payload = _legacy_load(path, key, stage)
        text = store.save(key, stage, payload)
        with open(store.path_for(key, stage), "rb") as handle:
            written = handle.read()
        expected = _legacy_envelope_text(key, stage, payload)
        assert written == expected.encode("ascii")
        with open(path, "rb") as handle:
            assert written == handle.read()
        assert text == json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )


def test_a_cache_written_by_the_legacy_writer_reads_as_all_hits(
    filled_cache, tmp_path
):
    legacy_dir = str(tmp_path / "legacy")
    for path, key, stage in _artifacts(filled_cache):
        payload = _legacy_load(path, key, stage)
        target = os.path.join(legacy_dir, key[:2], f"{key}.{stage}.json")
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "w", encoding="ascii") as handle:
            handle.write(_legacy_envelope_text(key, stage, payload))
    store = ArtifactStore(legacy_dir)
    for path, key, stage in _artifacts(filled_cache):
        assert store.load(key, stage) == _legacy_load(path, key, stage)
    assert all(name.startswith("hit.") for name in store.stats)


def _flip_payload_byte(text):
    return text.replace('"value-abc"', '"value-abd"')


def _flip_integrity_char(text):
    head = '{"integrity":"'
    char = text[len(head)]
    return text[: len(head)] + ("0" if char != "0" else "1") + text[len(head) + 1:]


def _truncate(text):
    return text[: len(text) - 7]


def _indent(text):
    return json.dumps(json.loads(text), indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "mutate",
    [_flip_payload_byte, _flip_integrity_char, _truncate, _indent],
    ids=["payload-byte", "integrity-char", "truncated", "indented"],
)
def test_corruption_matrix_reads_as_corrupt_miss(tmp_path, mutate):
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": "value-abc", "n": [1, 2.5, None]})
    path = store.path_for(KEY, "seed")
    with open(path) as handle:
        text = handle.read()
    mutated = mutate(text)
    assert mutated != text
    with open(path, "w") as handle:
        handle.write(mutated)
    assert store.load(KEY, "seed") is None
    assert store.load_text(KEY, "seed") is None
    assert store.stats == {"store.seed": 1, "corrupt.seed": 2, "miss.seed": 2}


def test_an_indented_envelope_is_the_one_behaviour_change(tmp_path):
    """The legacy path accepted a re-indented envelope; the framed
    check reads it as corrupt, so its job re-runs cold."""
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": 1})
    path = store.path_for(KEY, "seed")
    with open(path) as handle:
        indented = _indent(handle.read())
    with open(path, "w") as handle:
        handle.write(indented)
    assert _legacy_load(path, KEY, "seed") == {"v": 1}
    assert store.load(KEY, "seed") is None


@pytest.mark.parametrize("foreign", ["key", "stage"])
def test_an_envelope_under_a_foreign_name_is_corrupt(tmp_path, foreign):
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": 1})
    other_key, other_stage = ("cd" * 32, "seed") if foreign == "key" else (
        KEY, "lift"
    )
    target = store.path_for(other_key, other_stage)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    with open(store.path_for(KEY, "seed")) as src, open(target, "w") as dst:
        dst.write(src.read())
    assert store.load(other_key, other_stage) is None
    assert store.stats[f"corrupt.{other_stage}"] == 1
    assert store.stats[f"miss.{other_stage}"] == 1
    assert f"hit.{other_stage}" not in store.stats


def test_hot_cache_serves_the_saved_text(tmp_path):
    store = ArtifactStore(str(tmp_path), hot_artifacts=4)
    text = store.save(KEY, "seed", {"v": 1})
    os.unlink(store.path_for(KEY, "seed"))
    assert store.load_text(KEY, "seed") == text
    assert store.load(KEY, "seed") == {"v": 1}
    assert store.stats == {"store.seed": 1, "hit.seed": 2}
