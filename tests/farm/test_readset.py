"""Read-set recording and replay-based validation."""

from repro.bgp.announcement import Announcement
from repro.bgp.routemap import DENY, PERMIT, RouteMap, RouteMapLine
from repro.farm import ExplainJob, TransferRecorder, readset_valid, sketch_universe
from repro.topology.prefixes import Prefix


def _record_readset(config, specification, job):
    """Run the pipeline with a recorder attached; return its
    ``(head, entries)`` documents."""
    from repro.explain.engine import ExplanationEngine

    recorder = TransferRecorder(job.device)
    engine = ExplanationEngine(config, specification, recorder=recorder)
    job.run(engine)
    universe = sketch_universe(config, job)
    return recorder.payload(config, universe)


def _valid(readset, config, universe):
    head, entries = readset
    return readset_valid(head, config, universe, lambda: entries)


def _edit_map(config, router, direction, neighbor, transform):
    edited = config.copy()
    routemap = edited.get_map(router, direction, neighbor)
    edited.set_map(router, direction, neighbor, transform(routemap))
    return edited


def _renumber(routemap, offset):
    return RouteMap(
        routemap.name,
        tuple(
            RouteMapLine(
                seq=line.seq + offset,
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


def test_recorder_skips_own_device(s1):
    recorder = TransferRecorder("R1")
    ann = Announcement.originate(Prefix("10.0.0.0/8"), "C")
    recorder.concrete("R1", "out", "P1", ann, ann)
    assert len(recorder) == 0
    recorder.concrete("R2", "out", "P2", ann, ann)
    assert len(recorder) == 1


def test_recorder_dedupes_identical_transfers(s1):
    recorder = TransferRecorder("R1")
    ann = Announcement.originate(Prefix("10.0.0.0/8"), "C")
    recorder.concrete("R2", "out", "P2", ann, ann)
    recorder.concrete("R2", "out", "P2", ann, ann)
    assert len(recorder) == 1
    recorder.concrete("R2", "out", "P2", ann, None)  # same input: still deduped
    assert len(recorder) == 1


def test_recorder_captures_identity_transfers(s1):
    """Sessions without maps are recorded too, so *adding* a map later
    is a visible change."""
    job = ExplainJob(device="R1", requirement="Req1")
    readset = _record_readset(s1.paper_config, s1.specification, job)
    head, _ = readset
    absent = [entry for entry in head["maps"] if entry[3] is None]
    assert absent, "expected at least one recorded map-less seam"


def test_readset_valid_against_unchanged_config(s1):
    job = ExplainJob(device="R1", requirement="Req1")
    readset = _record_readset(s1.paper_config, s1.specification, job)
    universe = sketch_universe(s1.paper_config, job)
    assert _valid(readset, s1.paper_config, universe)


def test_readset_survives_seq_renumbering(s1):
    """A behavior-preserving edit (seq renumber) changes the rendered
    text but replays to identical fingerprints."""
    job = ExplainJob(device="R1", requirement="Req1")
    readset = _record_readset(s1.paper_config, s1.specification, job)
    edited = _edit_map(
        s1.paper_config, "R2", "out", "P2", lambda rm: _renumber(rm, 11)
    )
    universe = sketch_universe(edited, job)
    assert _valid(readset, edited, universe)


def test_readset_detects_behavior_change(s1):
    job = ExplainJob(device="R1", requirement="Req1")
    readset = _record_readset(s1.paper_config, s1.specification, job)
    edited = _edit_map(s1.paper_config, "R2", "out", "P2", _flip_actions)
    universe = sketch_universe(edited, job)
    assert not _valid(readset, edited, universe)


def test_readset_detects_removed_map(s1):
    job = ExplainJob(device="R1", requirement="Req1")
    readset = _record_readset(s1.paper_config, s1.specification, job)
    edited = s1.paper_config.copy()
    edited.router_config("R2").remove_map("out", "P2")
    universe = sketch_universe(edited, job)
    assert not _valid(readset, edited, universe)


def test_garbage_readset_is_invalid(s1):
    job = ExplainJob(device="R1", requirement="Req1")
    universe = sketch_universe(s1.paper_config, job)
    def no_entries():
        raise AssertionError("a garbage head must not load entries")

    assert not readset_valid(None, s1.paper_config, universe, no_entries)
    assert not readset_valid({}, s1.paper_config, universe, no_entries)
    assert not readset_valid(
        {"schema": "repro-farm-readset/1"}, s1.paper_config, universe,
        no_entries,
    )
