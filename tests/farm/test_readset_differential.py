"""The two-artifact read-set against the single document it replaced.

The reference here is the previous recorder, rebuilt verbatim: it
serialized and digested every input before deduplicating on the
digest, and stored one document holding head and entries together.
Every case-study job at both granularities must record the same
read-set through the value-keyed recorder (with shared caches, without
them, and governed), and every single-map edit of the case studies
must invalidate exactly the jobs the whole-document validation did.
"""

import os

import pytest

from repro.api import ExplainRequest, explain_batch
from repro.bgp.announcement import Announcement
from repro.bgp.routemap import DENY, PERMIT, RouteMap, RouteMapLine
from repro.bgp.render import render_routemap
from repro.explain import family
from repro.farm import (
    ArtifactStore,
    ExplainJob,
    FarmOptions,
    TransferRecorder,
    canonical_json,
    compute_dirty,
    enumerate_jobs,
    job_key,
    readset_valid,
    run_job,
    sketch_universe,
    worker,
)
from repro.farm.invalidate import _replay_concrete, _replay_symbolic
from repro.farm.keys import digest
from repro.farm.readset import (
    CONCRETE,
    ENTRIES_STAGE,
    READSET_SCHEMA,
    READSET_STAGE,
    SYMBOLIC,
    concrete_output_fingerprint,
    symbolic_output_fingerprint,
    symbolic_route_to_payload,
    universe_payload,
)
from repro.runtime import ChaosPlan
from repro.scenarios import SCENARIOS
from repro.topology.prefixes import Prefix

CASE_STUDIES = ("scenario1", "scenario2", "scenario3", "campus")
LEGACY_SCHEMA = "repro-farm-readset/1"


# ----------------------------------------------------------------------
# The reference: digest-keyed recording, one document, whole-document
# validation.


class _LegacyRecorder:
    """The digest-keyed recorder the value-keyed one replaced."""

    documents: list = []

    def __init__(self, device, memo=None):
        self.device = device
        self._entries = {}

    def symbolic(self, owner, direction, neighbor, state_in, permit, state_out):
        if owner == self.device:
            return
        input_payload = symbolic_route_to_payload(state_in)
        key = (SYMBOLIC, owner, direction, neighbor, digest(input_payload))
        if key in self._entries:
            return
        self._entries[key] = {
            "seam": SYMBOLIC,
            "owner": owner,
            "direction": direction,
            "neighbor": neighbor,
            "input": input_payload,
            "output": symbolic_output_fingerprint(permit, state_out),
        }

    def concrete(self, owner, direction, neighbor, announcement, result):
        if owner == self.device:
            return
        input_payload = announcement.to_dict()
        key = (CONCRETE, owner, direction, neighbor, digest(input_payload))
        if key in self._entries:
            return
        self._entries[key] = {
            "seam": CONCRETE,
            "owner": owner,
            "direction": direction,
            "neighbor": neighbor,
            "input": input_payload,
            "output": concrete_output_fingerprint(result),
        }

    def document(self, config, universe):
        maps = []
        for owner, direction, neighbor in sorted(
            {key[1:4] for key in self._entries}
        ):
            routemap = config.get_map(owner, direction, neighbor)
            maps.append(
                [
                    owner,
                    direction,
                    neighbor,
                    render_routemap(routemap) if routemap is not None else None,
                ]
            )
        return {
            "schema": LEGACY_SCHEMA,
            "device": self.device,
            "universe": universe_payload(universe),
            "maps": maps,
            "entries": [self._entries[key] for key in sorted(self._entries)],
        }

    def payload(self, config, universe):
        """Store the old document split into today's two artifacts."""
        document = self.document(config, universe)
        _LegacyRecorder.documents.append(canonical_json(document))
        head = dict(document, schema=READSET_SCHEMA)
        return head, {"entries": head.pop("entries")}


class _LegacyCapture:
    """The capture buffer before it deduplicated: every event, in order."""

    def __init__(self):
        self.events = []

    def symbolic(self, *args):
        self.events.append(("symbolic", args))

    def concrete(self, *args):
        self.events.append(("concrete", args))

    def replay(self, recorder):
        if recorder is None:
            return
        for seam, args in self.events:
            getattr(recorder, seam)(*args)


def _legacy_readset_valid(readset, new_config, new_universe):
    """Whole-document validation, as before the head/entries split."""
    if not isinstance(readset, dict) or readset.get("schema") != LEGACY_SCHEMA:
        return False
    if readset.get("universe") != universe_payload(new_universe):
        return False
    try:
        maps = list(readset["maps"])
        entries = list(readset["entries"])
    except (KeyError, TypeError):
        return False
    dirty_seams = set()
    for owner, direction, neighbor, recorded_text in maps:
        routemap = new_config.get_map(owner, direction, neighbor)
        current_text = render_routemap(routemap) if routemap is not None else None
        if current_text != recorded_text:
            dirty_seams.add((owner, direction, neighbor))
    if not dirty_seams:
        return True
    for entry in entries:
        seam = (entry["owner"], entry["direction"], entry["neighbor"])
        if seam not in dirty_seams:
            continue
        routemap = new_config.get_map(*seam)
        if entry["seam"] == SYMBOLIC:
            ok = _replay_symbolic(entry, routemap, new_universe)
        else:
            ok = _replay_concrete(entry, routemap)
        if not ok:
            return False
    return True


def _legacy_document(store, key):
    """The single document a head + entries pair replaced."""
    head = store.load(key, READSET_STAGE)
    entries = store.load(key, ENTRIES_STAGE)
    if head is None or entries is None:
        return None
    return dict(head, schema=LEGACY_SCHEMA, entries=entries["entries"])


def _legacy_dirty(old_config, new_config, specification, jobs, options, store):
    dirty = set()
    for job in jobs:
        new_key = job_key(new_config, specification, job, options)
        try:
            old_key = job_key(old_config, specification, job, options)
        except Exception:
            old_key = None
        if new_key != old_key:
            dirty.add(job)
            continue
        readset = _legacy_document(store, new_key)
        if readset is None or store.load_text(new_key, "explanation") is None:
            dirty.add(job)
            continue
        universe = sketch_universe(new_config, job)
        if not _legacy_readset_valid(readset, new_config, universe):
            dirty.add(job)
    return dirty


# ----------------------------------------------------------------------
# Helpers


def _fill(cache_dir, mode):
    """Cold batches of every case study at both granularities."""
    worker.reset_shared_slot()
    for scenario in CASE_STUDIES:
        for per_line in (False, True):
            explain_batch(
                ExplainRequest(
                    scenario=scenario,
                    per_line=per_line,
                    cache_dir=str(cache_dir),
                    share=mode == "shared",
                    budget=10**9 if mode == "governed" else None,
                )
            )
    worker.reset_shared_slot()


def _artifacts(cache_dir):
    found = {}
    for root, _, names in os.walk(str(cache_dir)):
        for name in names:
            if name.endswith(".json") and name != "quarantine.json":
                with open(os.path.join(root, name), encoding="ascii") as handle:
                    found[name] = handle.read()
    return found


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("shared")
    _fill(cache_dir, "shared")
    return cache_dir


def _renumber(routemap):
    return RouteMap(
        routemap.name,
        tuple(
            RouteMapLine(
                seq=line.seq + 7,
                action=line.action,
                match_attr=line.match_attr,
                match_value=line.match_value,
                sets=line.sets,
            )
            for line in routemap.lines
        ),
    )


def _flip_actions(routemap):
    return RouteMap(
        routemap.name,
        tuple(
            RouteMapLine(
                seq=line.seq,
                action=DENY if line.action == PERMIT else PERMIT,
                match_attr=line.match_attr,
                match_value=line.match_value,
                sets=line.sets,
            )
            for line in routemap.lines
        ),
    )


def _single_map_edits(config):
    """Every renumber / flip / removal of one attached route-map."""
    for router in config.topology.router_names:
        for direction, neighbor in config.router_config(router).sessions():
            routemap = config.get_map(router, direction, neighbor)
            for name, transform in (
                ("renumber", _renumber),
                ("flip", _flip_actions),
            ):
                edited = config.copy()
                edited.set_map(router, direction, neighbor, transform(routemap))
                yield (router, direction, neighbor, name), edited
            edited = config.copy()
            edited.router_config(router).remove_map(direction, neighbor)
            yield (router, direction, neighbor, "remove"), edited


# ----------------------------------------------------------------------
# Recording


@pytest.mark.parametrize("mode", ["shared", "unshared", "governed"])
def test_recorded_readsets_match_the_digest_keyed_recorder(
    mode, shared_cache, tmp_path, monkeypatch
):
    """Head + entries, byte for byte, equal the old single document
    split in two -- and every other artifact is unchanged too."""
    if mode == "shared":
        current = _artifacts(shared_cache)
    else:
        _fill(tmp_path / "current", mode)
        current = _artifacts(tmp_path / "current")

    _LegacyRecorder.documents = []
    with monkeypatch.context() as patch:
        patch.setattr(worker, "TransferRecorder", _LegacyRecorder)
        patch.setattr(family, "_CaptureRecorder", _LegacyCapture)
        _fill(tmp_path / "legacy", mode)
    legacy = _artifacts(tmp_path / "legacy")

    stages = {name.split(".")[1] for name in current}
    assert {READSET_STAGE, ENTRIES_STAGE, "explanation"} <= stages
    assert sorted(current) == sorted(legacy)
    for name in current:
        assert current[name] == legacy[name], name

    # The head plus the entries is the old document, schema aside.
    store = ArtifactStore(str(shared_cache if mode == "shared" else tmp_path / "current"))
    merged = sorted(
        canonical_json(_legacy_document(store, name.split(".")[0]))
        for name in current
        if name.split(".")[1] == READSET_STAGE
    )
    assert merged == sorted(_LegacyRecorder.documents)
    assert len(merged) > 100


def test_capture_keeps_one_event_per_distinct_transfer():
    ann = Announcement.originate(Prefix("10.0.0.0/8"), "C")
    other = ann.with_med(5)
    capture = family._CaptureRecorder()
    stream = [
        ("R2", "out", "P2", ann, ann),
        ("R2", "out", "P2", ann, None),  # same input: first output wins
        ("R2", "out", "P2", other, other),
        ("R1", "out", "P1", ann, ann),
        ("R2", "out", "P2", other, None),
    ]
    for args in stream:
        capture.concrete(*args)

    class Listener:
        def __init__(self):
            self.calls = []

        def concrete(self, *args):
            self.calls.append(args)

    listener = Listener()
    capture.replay(listener)
    assert listener.calls == [stream[0], stream[2], stream[3]]

    direct, replayed = TransferRecorder("R1"), TransferRecorder("R1")
    for args in stream:
        direct.concrete(*args)
    capture.replay(replayed)
    assert direct._entries == replayed._entries
    assert [e["output"] for e in replayed._entries.values()] == [
        concrete_output_fingerprint(ann),
        concrete_output_fingerprint(other),
    ]


def test_sibling_recorders_share_built_entries(monkeypatch):
    from repro.farm import readset

    ann = Announcement.originate(Prefix("10.0.0.0/8"), "C")
    fingerprint = concrete_output_fingerprint(ann)
    digests = []
    real_digest = readset.digest
    monkeypatch.setattr(
        readset, "digest", lambda payload: digests.append(payload) or real_digest(payload)
    )
    memo = {}
    first, second = TransferRecorder("R1", memo=memo), TransferRecorder("R3", memo=memo)
    for recorder in (first, second):
        recorder.concrete("R2", "out", "P2", ann, ann)
        recorder.concrete("R2", "out", "P2", ann, None)
    # One announcement value: digested once, as input and as output.
    assert len(digests) == 1
    (entry,) = first._entries.values()
    (sibling,) = second._entries.values()
    assert sibling == entry and sibling["input"] is entry["input"]
    assert entry["output"] == fingerprint

    # A sibling that saw a different output first keeps that output.
    third = TransferRecorder("R1", memo=memo)
    third.concrete("R2", "out", "P2", ann, None)
    assert next(iter(third._entries.values()))["output"] is None
    assert len(digests) == 1

    alone = TransferRecorder("R3")
    alone.concrete("R2", "out", "P2", ann, ann)
    assert alone._entries == second._entries


# ----------------------------------------------------------------------
# Validation


def test_every_single_map_edit_invalidates_as_before(shared_cache):
    """compute_dirty over head + entries decides every renumber, action
    flip and map removal of the case studies exactly as whole-document
    validation did."""
    options = FarmOptions()
    store = ArtifactStore(str(shared_cache))
    decided = {"clean": 0, "dirty": 0, "replayed_clean": 0}
    for scenario in CASE_STUDIES:
        built = SCENARIOS[scenario]()
        config, specification = built.paper_config, built.specification
        for edit, edited in _single_map_edits(config):
            # The questions of the edited network, as an incremental
            # run asks them (a renumbered own map renames line jobs).
            jobs = enumerate_jobs(edited, specification) + enumerate_jobs(
                edited, specification, per_line=True
            )
            dirty, clean = compute_dirty(
                config, edited, specification, jobs, options, store
            )
            expected = _legacy_dirty(
                config, edited, specification, jobs, options, store
            )
            assert set(dirty) == expected, (scenario, edit)
            assert set(clean) == set(jobs) - expected, (scenario, edit)
            decided["dirty"] += len(dirty)
            decided["clean"] += len(clean)
            if edit[3] == "renumber":
                decided["replayed_clean"] += len(clean)
    # The sweep exercises both outcomes and the replay path.
    assert decided["dirty"] and decided["clean"] and decided["replayed_clean"]
    assert store.stats.get(f"hit.{ENTRIES_STAGE}", 0) > 0


def _paths(store, key):
    return store.path_for(key, READSET_STAGE), store.path_for(key, ENTRIES_STAGE)


def _renumbered(s1):
    edited = s1.paper_config.copy()
    routemap = edited.get_map("R2", "out", "P2")
    edited.set_map("R2", "out", "P2", _renumber(routemap))
    return edited


def _run(config, s1, job, cache_dir, **kwargs):
    return run_job(config, s1.specification, job, FarmOptions(), str(cache_dir), **kwargs)


JOB = ExplainJob(device="R1", requirement="Req1")


def test_unchanged_maps_never_load_the_entries(s1, tmp_path):
    first = _run(s1.paper_config, s1, JOB, tmp_path)
    assert not first.cached
    warm = _run(s1.paper_config, s1, JOB, tmp_path)
    assert warm.cached
    touched = [name for name in warm.metrics.counters if ENTRIES_STAGE in name]
    assert touched == []
    replayed = _run(_renumbered(s1), s1, JOB, tmp_path)
    assert replayed.cached
    assert replayed.metrics.counters[f"farm.store.hit.{ENTRIES_STAGE}"] == 1


@pytest.mark.parametrize("damage", ["missing", "truncated", "garbage"])
def test_missing_or_corrupt_entries_mean_dirty(damage, s1, tmp_path):
    first = _run(s1.paper_config, s1, JOB, tmp_path)
    store = ArtifactStore(str(tmp_path))
    _, entries_path = _paths(store, first.key)
    if damage == "missing":
        os.unlink(entries_path)
    elif damage == "truncated":
        with open(entries_path, "r+b") as handle:
            handle.truncate(os.path.getsize(entries_path) // 2)
    else:
        store.save(first.key, ENTRIES_STAGE, {"entries": "not a list"})

    edited = _renumbered(s1)
    dirty, clean = compute_dirty(
        s1.paper_config, edited, s1.specification, [JOB], FarmOptions(), store
    )
    assert dirty == [JOB] and clean == {}
    # The head alone still serves the unchanged configuration.
    assert _run(s1.paper_config, s1, JOB, tmp_path).cached
    # A replay that needs the entries re-runs the job and restores them.
    rerun = _run(edited, s1, JOB, tmp_path)
    assert not rerun.cached
    assert rerun.metrics.counters["farm.cache.invalidated"] == 1
    assert store.load(first.key, ENTRIES_STAGE) is not None
    assert _run(edited, s1, JOB, tmp_path).cached


def test_a_version_1_readset_reruns_cold_once(s1, tmp_path):
    first = _run(s1.paper_config, s1, JOB, tmp_path)
    store = ArtifactStore(str(tmp_path))
    document = _legacy_document(store, first.key)
    # A cache written before the split: one /1 document, no entries.
    store.save(first.key, READSET_STAGE, document)
    os.unlink(store.path_for(first.key, ENTRIES_STAGE))
    universe = sketch_universe(s1.paper_config, JOB)
    assert not readset_valid(document, s1.paper_config, universe, lambda: None)

    dirty, _ = compute_dirty(
        s1.paper_config, s1.paper_config, s1.specification, [JOB],
        FarmOptions(), store,
    )
    assert dirty == [JOB]
    cold = _run(s1.paper_config, s1, JOB, tmp_path)
    assert not cold.cached
    assert cold.metrics.counters["farm.cache.invalidated"] == 1
    assert store.load(first.key, READSET_STAGE)["schema"] == READSET_SCHEMA
    assert _run(s1.paper_config, s1, JOB, tmp_path).cached


def test_chaos_corrupted_entries(s1, tmp_path):
    plan = ChaosPlan().corrupt(JOB.job_id, stage=ENTRIES_STAGE)
    first = _run(s1.paper_config, s1, JOB, tmp_path, chaos=plan)
    assert first.status == "EXACT"
    store = ArtifactStore(str(tmp_path))
    assert store.load(first.key, ENTRIES_STAGE) is None
    assert store.load(first.key, READSET_STAGE) is not None
    assert _run(s1.paper_config, s1, JOB, tmp_path).cached
    rerun = _run(_renumbered(s1), s1, JOB, tmp_path)
    assert not rerun.cached
    assert rerun.metrics.counters[f"farm.store.corrupt.{ENTRIES_STAGE}"] == 1
