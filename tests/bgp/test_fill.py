"""``fill`` keeps hole-free route-maps as they are.

Route-map lines and maps are frozen dataclasses, so a fill returns the
very object when it holds no hole, and rebuilds only what does.  Over
every exhaustive fill of the case-study sketches, the result must equal
what the rebuild-everything fill it replaced produced, map for map and
rendered text for rendered text, and simulate to the same outcome.

Lines and maps decide whether they hold a hole once, at construction;
on every sketch and fill those flags must equal a fresh walk of the
fields, and the short-circuiting ``has_holes`` of router and network
configurations must agree with the holes they list.
"""

import itertools

import pytest

from repro.bgp import NetworkConfig, RouteMap, RouteMapLine, SetClause
from repro.bgp.render import render_network
from repro.bgp.routemap import _fill
from repro.bgp.sketch import Hole
from repro.bgp.simulation import ConvergenceError, simulate
from repro.explain import ACTION
from repro.explain.symbolize import symbolize_router
from repro.farm.job import enumerate_jobs
from repro.scenarios import scenario1, scenario2, scenario3
from repro.scenarios.campus import campus_scenario


def rebuild_fill(config, assignment):
    """The fill that rebuilt every line and map, holes or not."""
    filled = NetworkConfig(config.topology)
    for router in config.topology.router_names:
        source = config.router_config(router)
        target = filled.router_config(router)
        for direction, neighbor in source.sessions():
            routemap = source.get_map(direction, neighbor)
            lines = tuple(
                RouteMapLine(
                    seq=line.seq,
                    action=_fill(line.action, assignment),
                    match_attr=_fill(line.match_attr, assignment),
                    match_value=_fill(line.match_value, assignment),
                    sets=tuple(
                        SetClause(
                            _fill(clause.attribute, assignment),
                            _fill(clause.value, assignment),
                        )
                        for clause in line.sets
                    ),
                )
                for line in routemap.lines
            )
            target.set_map(direction, neighbor, RouteMap(routemap.name, lines))
    return filled


def outcome(config):
    try:
        result = simulate(config)
    except ConvergenceError as exc:
        return "ConvergenceError", str(exc)
    return list(result.rib.items()), list(result.candidates.items()), result.rounds


def maps(config):
    for router in config.topology.router_names:
        router_config = config.router_config(router)
        for direction, neighbor in router_config.sessions():
            yield (router, direction, neighbor), router_config.get_map(direction, neighbor)


def walks_to_a_hole(holes):
    return next(iter(holes), None) is not None


def check_hole_flags(config):
    """Every cached flag and short-circuiting check equals a fresh walk."""
    assert config.has_holes() == bool(config.holes())
    for router in config.topology.router_names:
        router_config = config.router_config(router)
        assert router_config.has_holes() == walks_to_a_hole(router_config.holes())
        assert router_config.has_holes() == bool(config.holes_of(router))
        for direction, neighbor in router_config.sessions():
            routemap = router_config.get_map(direction, neighbor)
            assert routemap.has_holes() == walks_to_a_hole(routemap.holes())
            for line in routemap.lines:
                fresh = any(
                    isinstance(value, Hole)
                    for value in (line.action, line.match_attr, line.match_value)
                ) or any(
                    isinstance(clause.attribute, Hole) or isinstance(clause.value, Hole)
                    for clause in line.sets
                )
                assert line.has_holes() == fresh
                assert line.has_holes() == walks_to_a_hole(line.holes())


def check_router_fill(sketch, assignment):
    """``RouterConfig.fill`` passes every hole-free map through as the
    same object."""
    for router in sketch.topology.router_names:
        source = sketch.router_config(router)
        filled = source.fill(assignment)
        assert filled is not source and not filled.has_holes()
        assert filled.sessions() == source.sessions()
        for direction, neighbor in source.sessions():
            before = source.get_map(direction, neighbor)
            after = filled.get_map(direction, neighbor)
            assert (after is before) == (not before.has_holes())


def check_fill(sketch, assignment):
    """``sketch.fill`` equals the rebuilding fill, keeps every hole-free
    map as the same object and rebuilds every map with a hole."""
    filled = sketch.fill(assignment)
    check_hole_flags(sketch)
    check_hole_flags(filled)
    check_router_fill(sketch, assignment)
    reference = rebuild_fill(sketch, assignment)
    assert dict(maps(filled)) == dict(maps(reference))
    assert render_network(filled) == render_network(reference)
    before = dict(maps(sketch))
    for session, routemap in maps(filled):
        assert not routemap.has_holes()
        if before[session].has_holes():
            assert routemap is not before[session]
        else:
            assert routemap is before[session]
    assert outcome(filled) == outcome(reference)


def assignments(holes):
    for values in itertools.product(*(hole.domain for hole in holes)):
        yield {hole.name: value for hole, value in zip(holes, values)}


SCENARIOS = [scenario1, scenario2, scenario3, campus_scenario]


@pytest.mark.parametrize("build", SCENARIOS, ids=lambda build: build.__name__)
def test_every_synthesis_sketch_fill_equals_the_rebuilding_fill(build):
    sketch = build().sketch
    holes = sketch.holes()
    fills = 0
    for assignment in assignments(holes):
        check_fill(sketch, assignment)
        fills += 1
    assert fills == 2 ** len(holes)


@pytest.mark.parametrize("per_line", [False, True], ids=["router", "line"])
@pytest.mark.parametrize("build", SCENARIOS, ids=lambda build: build.__name__)
def test_every_job_sketch_fill_equals_the_rebuilding_fill(build, per_line):
    """The fills the audit oracle and projection make: one device (or
    one line) symbolized, every other map concrete."""
    scenario = build()
    config = scenario.paper_config
    kept = 0
    for job in enumerate_jobs(config, scenario.specification, per_line=per_line):
        sketch, holes = job.symbolize(config)
        for assignment in assignments(holes.values()):
            check_fill(sketch, assignment)
        kept += sum(not routemap.has_holes() for _, routemap in maps(sketch))
    assert kept > 0


def test_line_fill_keeps_hole_free_lines_and_rebuilds_holey_ones():
    sketch, holes = symbolize_router(scenario1().paper_config, "R1", (ACTION,))
    assignment = {name: hole.domain[0] for name, hole in holes.items()}
    lines = [line for _, routemap in maps(sketch) for line in routemap.lines]
    assert any(line.has_holes() for line in lines)
    assert not all(line.has_holes() for line in lines)
    for line in lines:
        filled = line.fill(assignment)
        if line.has_holes():
            assert filled is not line and not filled.has_holes()
        else:
            assert filled is line
