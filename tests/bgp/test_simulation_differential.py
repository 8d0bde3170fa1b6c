"""Differential test: the delta-driven simulator against the whole-table
reference loop (``reference_simulation.py``).

Both simulators run on the same configuration with a recorder, an
instrumentation sink and a governor attached, and must agree on every
observable: the RIB and the candidate tables (contents, rank order and
dict order), the round count or the ``ConvergenceError`` message, the
``simulate.*`` counters, the *set* of route-map transfers the recorder
saw (read-set recorders deduplicate, so repeats are not observable),
and the number of governor checkpoints.
"""

import itertools

import pytest

from repro.bgp import (
    Community,
    DENY,
    Direction,
    MatchAttribute,
    NetworkConfig,
    PERMIT,
    RouteMap,
    RouteMapLine,
    SetAttribute,
    SetClause,
)
from repro.bgp.simulation import ConvergenceError, simulate
from repro.igp import WeightConfig
from repro.obs import Instrumentation
from repro.runtime import Governor
from repro.scenarios import scenario1, scenario2, scenario3
from repro.scenarios.campus import campus_scenario
from repro.scenarios.generators import (
    chain_case,
    grid_case,
    leafspine_case,
    random_case,
    ring_case,
)
from repro.topology import Prefix, Topology

from .reference_simulation import reference_simulate
from .test_simulation_properties import random_config


class _SetRecorder:
    def __init__(self):
        self.events = set()

    def concrete(self, owner, direction, neighbor, announcement, result):
        self.events.add((owner, direction, neighbor, announcement, result))


def _observe(simulator, config, **kwargs):
    recorder = _SetRecorder()
    obs = Instrumentation()
    governor = Governor()
    try:
        outcome = simulator(
            config, recorder=recorder, obs=obs, governor=governor, **kwargs
        )
    except ConvergenceError as exc:
        result = ("ConvergenceError", str(exc))
    else:
        result = (
            list(outcome.rib.items()),
            list(outcome.candidates.items()),
            outcome.rounds,
        )
    return {
        "result": result,
        "counters": dict(obs.metrics.counters),
        "transfers": recorder.events,
        "checkpoints": governor.accounting().get("checkpoints:simulate", 0),
    }


def _mismatches(config, **kwargs):
    delta = _observe(simulate, config, **kwargs)
    reference = _observe(reference_simulate, config, **kwargs)
    return [field for field in delta if delta[field] != reference[field]]


def _all_fills(sketch):
    holes = sketch.holes()
    for values in itertools.product(*(hole.domain for hole in holes)):
        yield sketch.fill({hole.name: value for hole, value in zip(holes, values)})


SCENARIOS = [scenario1, scenario2, scenario3, campus_scenario]


@pytest.mark.parametrize("build", SCENARIOS, ids=lambda build: build.__name__)
def test_every_sketch_fill_agrees(build):
    """Every exhaustive hole fill of the case-study sketch."""
    scenario = build()
    failures = []
    fills = 0
    for config in _all_fills(scenario.sketch):
        fills += 1
        fields = _mismatches(config)
        if fields:
            failures.append((fills, fields))
    assert fills == 2 ** len(scenario.sketch.holes())
    assert failures == []


@pytest.mark.parametrize("build", SCENARIOS, ids=lambda build: build.__name__)
def test_paper_config_agrees_with_ibgp_and_hot_potato(build):
    scenario = build()
    weights = WeightConfig(scenario.topology)
    for index, link in enumerate(scenario.topology.links):
        weights.set_weight(link.a, link.b, 1 + (index * 7) % 5)
    for kwargs in (
        {},
        {"ibgp": True},
        {"link_cost": weights.concrete_weight},
        {"ibgp": True, "link_cost": weights.concrete_weight},
    ):
        assert _mismatches(scenario.paper_config, **kwargs) == []


GENERATED = [
    ("chain3", lambda: chain_case(3)),
    ("chain6", lambda: chain_case(6)),
    ("ring4", lambda: ring_case(4)),
    ("ring7", lambda: ring_case(7)),
    ("grid2x3", lambda: grid_case(2, 3)),
    ("grid3x3", lambda: grid_case(3, 3)),
    ("random5", lambda: random_case(5, seed=3)),
    ("random8", lambda: random_case(8, seed=17)),
    ("leafspine2x2", lambda: leafspine_case(2, 2)),
    ("leafspine2x4", lambda: leafspine_case(2, 4)),
]


@pytest.mark.parametrize("name,build", GENERATED, ids=[name for name, _ in GENERATED])
def test_generated_networks_agree(name, build):
    case = build()
    assert _mismatches(case.config) == []
    assert _mismatches(case.config, ibgp=True) == []
    # Random policies on the generated topology exercise LP/MED/
    # community rewrites, denials and (for some seeds) oscillation.
    prefixes = list(case.config.topology.all_prefixes())
    communities = [Community(100, 1), Community(100, 2)]
    for seed in range(12):
        config = random_config(case.config.topology, seed, prefixes, communities)
        assert _mismatches(config) == [], seed
        assert _mismatches(config, max_rounds=3) == [], seed


@pytest.fixture
def two_as_chain():
    """E1 (AS 10) -- A - B - C (all AS 20) -- E2 (AS 30), plus a B-D-C
    detour in AS 20 so the full-mesh rule has alternatives to prune."""
    topo = Topology("two-as-chain")
    topo.add_router("E1", asn=10, originated=[Prefix("10.1.0.0/24")])
    topo.add_router("A", asn=20)
    topo.add_router("B", asn=20)
    topo.add_router("C", asn=20)
    topo.add_router("D", asn=20, originated=[Prefix("10.4.0.0/24")])
    topo.add_router("E2", asn=30, originated=[Prefix("10.2.0.0/24")])
    for a, b in [("E1", "A"), ("A", "B"), ("B", "C"), ("C", "E2"), ("B", "D"), ("D", "C")]:
        topo.add_link(a, b)
    return topo


def _boost(local_pref):
    return RouteMap(
        f"lp{local_pref}",
        (
            RouteMapLine(
                seq=10,
                action=PERMIT,
                sets=(SetClause(SetAttribute.LOCAL_PREF, local_pref),),
            ),
        ),
    )


def test_ibgp_fixture_agrees(two_as_chain):
    plain = NetworkConfig(two_as_chain)
    boosted = NetworkConfig(two_as_chain)
    boosted.set_map("A", Direction.IN, "E1", _boost(300))
    boosted.set_map("C", Direction.IN, "E2", _boost(250))
    for config in (plain, boosted):
        assert _mismatches(config) == []
        assert _mismatches(config, ibgp=True) == []


def test_hot_potato_fixture_agrees():
    topo = Topology("twin-exit")
    topo.add_router("S", asn=1, originated=[Prefix("10.1.0.0/24")])
    topo.add_router("L", asn=2)
    topo.add_router("R", asn=3)
    topo.add_router("T", asn=4, originated=[Prefix("10.2.0.0/24")])
    for a, b in [("S", "L"), ("S", "R"), ("L", "T"), ("R", "T")]:
        topo.add_link(a, b)
    for cost_left, cost_right in [(10, 1), (1, 10), (5, 5)]:
        weights = WeightConfig(topo)
        weights.set_weight("S", "L", cost_left)
        weights.set_weight("S", "R", cost_right)
        assert _mismatches(NetworkConfig(topo), link_cost=weights.concrete_weight) == []


@pytest.mark.parametrize("max_rounds", [1, 2, None])
def test_square_at_round_bounds(square_topology, max_rounds):
    """The square cut off by a round bound (the oscillation stand-in of
    the governor tests), and under the default bound."""
    assert _mismatches(NetworkConfig(square_topology), max_rounds=max_rounds) == []


def _bad_gadget():
    """Griffin's BAD GADGET: spokes 1, 2, 3 around origin 0; each
    spoke prefers the two-hop route through its clockwise neighbor
    over its direct route, and exports only direct routes (routes
    learned from a spoke are tagged on import and denied on export)."""
    topo = Topology("bad-gadget")
    topo.add_router("O", asn=1, originated=[Prefix("10.0.0.0/24")])
    spokes = ["S1", "S2", "S3"]
    for index, name in enumerate(spokes):
        topo.add_router(name, asn=10 + index)
        topo.add_link("O", name)
    for a, b in zip(spokes, spokes[1:] + spokes[:1]):
        topo.add_link(a, b)
    config = NetworkConfig(topo)
    for index, name in enumerate(spokes):
        clockwise = spokes[(index + 1) % 3]
        counter = spokes[(index - 1) % 3]
        tag = Community(10 + index, 9)
        config.set_map(
            name,
            Direction.IN,
            clockwise,
            RouteMap(
                f"{name}_from_{clockwise}",
                (
                    RouteMapLine(
                        seq=10,
                        action=PERMIT,
                        sets=(
                            SetClause(SetAttribute.LOCAL_PREF, 200),
                            SetClause(SetAttribute.COMMUNITY, tag),
                        ),
                    ),
                ),
            ),
        )
        config.set_map(name, Direction.IN, counter, RouteMap.deny_all(f"{name}_deny"))
        for neighbor in (clockwise, counter):
            config.set_map(
                name,
                Direction.OUT,
                neighbor,
                RouteMap(
                    f"{name}_to_{neighbor}",
                    (
                        RouteMapLine(
                            seq=10,
                            action=DENY,
                            match_attr=MatchAttribute.COMMUNITY,
                            match_value=tag,
                        ),
                        RouteMapLine(seq=20, action=PERMIT),
                    ),
                ),
            )
    return config


@pytest.mark.parametrize("max_rounds", [1, 2, None])
def test_bad_gadget_at_round_bounds(max_rounds):
    config = _bad_gadget()
    with pytest.raises(ConvergenceError):
        simulate(config, max_rounds=max_rounds)
    assert _mismatches(config, max_rounds=max_rounds) == []
