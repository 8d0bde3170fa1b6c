"""``since`` (incremental) requests run under the one batch executor.

A ``since`` request names the configuration the cache was last filled
against.  Jobs the edit left clean settle from the store; only the
dirty rest is dispatched -- here on a lent worker fleet -- and every
job is journaled and streamed through ``progress`` like a plain batch.
"""

import threading
from dataclasses import replace

import pytest

from repro import api
from repro.bgp.render import render_network
from repro.bgp.routemap import RouteMap, RouteMapLine
from repro.farm import ArtifactStore, FarmOptions, WorkerFleet, compute_dirty
from repro.farm import enumerate_jobs
from repro.farm.keys import canonical_json
from repro.farm.worker import reset_shared_slot
from repro.spec.printer import format_specification
from repro.topology import render_topology


@pytest.fixture(autouse=True)
def _fresh_shared_slot():
    """Serial batches run in the test process; drop the process-global
    shared caches so no later test inherits this module's seed encodes."""
    reset_shared_slot()
    yield
    reset_shared_slot()


def _managed_maps(scenario):
    config = scenario.paper_config
    for router in sorted(scenario.specification.managed):
        router_config = config.router_config(router)
        for direction, neighbor in router_config.sessions():
            if router_config.get_map(direction, neighbor).lines:
                yield router, direction, neighbor


def _with_lines(config, router, direction, neighbor, rewrite):
    edited = config.copy()
    routemap = edited.get_map(router, direction, neighbor)
    lines = tuple(
        rewrite(index, line) for index, line in enumerate(routemap.lines)
    )
    edited.set_map(router, direction, neighbor, RouteMap(routemap.name, lines))
    return edited


def _renumbered(index, line):
    return RouteMapLine(
        seq=line.seq + 5, action=line.action, match_attr=line.match_attr,
        match_value=line.match_value, sets=line.sets,
    )


def _flipped_at(target):
    def rewrite(index, line):
        if index != target:
            return line
        return RouteMapLine(
            seq=line.seq,
            action="deny" if line.action == "permit" else "permit",
            match_attr=line.match_attr, match_value=line.match_value,
            sets=line.sets,
        )

    return rewrite


def single_map_edits(scenario):
    """(label, edited config): every renumber of one managed route-map,
    and every single-line action flip."""
    config = scenario.paper_config
    for router, direction, neighbor in _managed_maps(scenario):
        where = f"{router}.{direction}.{neighbor}"
        yield f"renumber {where}", _with_lines(
            config, router, direction, neighbor, _renumbered
        )
        count = len(config.get_map(router, direction, neighbor).lines)
        for index in range(count):
            yield f"flip {where}#{index}", _with_lines(
                config, router, direction, neighbor, _flipped_at(index)
            )


def _inline(scenario, config, **knobs):
    return api.ExplainRequest(
        topology=render_topology(scenario.topology),
        spec=format_specification(scenario.specification),
        config=render_network(config),
        managed=tuple(sorted(scenario.specification.managed)),
        **knobs,
    )


def _answers(report):
    return {
        result.job_id: canonical_json({**result.explanation, "timings": {}})
        for result in report.results
    }


@pytest.mark.parametrize("per_line", [False, True])
def test_every_single_map_edit_matches_a_cold_run(s1, tmp_path, per_line):
    cache = str(tmp_path / "cache")
    base = s1.paper_config
    api.explain_batch(_inline(s1, base, cache_dir=cache, per_line=per_line))
    store = ArtifactStore(cache)
    totals = {"clean": 0, "dirty": 0}
    with WorkerFleet(2) as fleet:
        for label, edited in single_map_edits(s1):
            request = _inline(s1, edited, per_line=per_line)
            config, spec = api.resolve_inputs(request)
            jobs = enumerate_jobs(config, spec, per_line=per_line)
            dirty, clean = compute_dirty(
                base, config, spec, jobs, FarmOptions(), store
            )
            settled = []
            report = api.explain_batch(
                replace(
                    request, cache_dir=cache, since=render_network(base),
                    workers=2,
                ),
                progress=settled.append, stop=threading.Event(), fleet=fleet,
            )
            cold = api.explain_batch(replace(request, no_cache=True))
            assert _answers(report) == _answers(cold), label
            served = {r.job_id for r in report.results if r.status == "CACHED"}
            assert served == {job.job_id for job in clean}, label
            assert sorted(r.job.job_id for r in settled) == sorted(
                job.job_id for job in jobs
            ), label
            counters = report.document["counters"]
            assert counters["farm.incremental.clean"] == len(clean), label
            assert counters["farm.incremental.dirty"] == len(dirty), label
            totals["clean"] += len(clean)
            totals["dirty"] += len(dirty)
    # The sweep exercised both halves of the split.
    assert totals["clean"] > 0 and totals["dirty"] > 0


def test_stop_drains_the_dirty_jobs(s1, tmp_path):
    cache = str(tmp_path)
    api.explain_batch(api.ExplainRequest(scenario="scenario1", cache_dir=cache))
    edited = _with_lines(s1.paper_config, "R2", "out", "P2", _renumbered)
    stop = threading.Event()
    stop.set()
    settled = []
    report = api.explain_batch(
        api.ExplainRequest(
            scenario="scenario1", cache_dir=cache,
            since=render_network(edited),
        ),
        progress=settled.append, stop=stop,
    )
    # The clean job settles from the store; the dirty one is drained,
    # left unsettled for a later resume.
    counters = report.document["counters"]
    assert counters["farm.incremental.dirty"] == 1
    assert counters["farm.incremental.clean"] == 1
    assert counters["farm.supervise.drained"] == 1
    assert [r.status for r in report.results] == ["CACHED"]
    assert [r.job.job_id for r in settled] == [report.results[0].job_id]


def test_since_without_a_cache_is_refused(s1):
    with pytest.raises(api.ApiError):
        api.explain_batch(
            api.ExplainRequest(
                scenario="scenario1", since=render_network(s1.paper_config)
            )
        )
