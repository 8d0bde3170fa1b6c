"""Differential test: ``simulate`` carrying one ``TransferMemo`` across
runs against memo-less ``simulate``.

The audit oracle passes one memo to every probe simulation of a world,
so a run may reuse transfers computed for earlier fills of the same
sketch.  Over every exhaustive fill of each case-study sketch -- in
suite order and in reverse, one memo per order -- the memo-carrying
run must agree with a memo-less run on every observable: the RIB and
the candidate tables (contents, rank order and dict order), the round
count or the ``ConvergenceError`` message, the ``simulate.*`` counters
and the number of governor checkpoints.  Further cases cover the iBGP
flag, map objects replaced between runs, a memo moved to another
topology, random policies over generated networks, BAD GADGET, and
the memo's ownership by the oracle.
"""

import itertools

import pytest

from repro.audit.oracle import Oracle
from repro.audit.suite import AuditCase
from repro.bgp import (
    Community,
    Direction,
    NetworkConfig,
    PERMIT,
    RouteMap,
    RouteMapLine,
    SetAttribute,
    SetClause,
)
from repro.bgp.simulation import ConvergenceError, TransferMemo, simulate
from repro.igp import WeightConfig
from repro.obs import Instrumentation
from repro.runtime import Governor
from repro.scenarios import scenario1, scenario2, scenario3
from repro.scenarios.campus import campus_scenario
from repro.scenarios.generators import grid_case, random_case, ring_case
from repro.topology import Prefix, Topology

from .test_simulation_differential import _bad_gadget
from .test_simulation_properties import random_config


def _observe(config, memo=None, **kwargs):
    obs = Instrumentation()
    governor = Governor()
    try:
        outcome = simulate(config, obs=obs, governor=governor, memo=memo, **kwargs)
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
        "checkpoints": governor.accounting().get("checkpoints:simulate", 0),
    }


def _mismatches(config, memo, **kwargs):
    carried = _observe(config, memo, **kwargs)
    fresh = _observe(config, **kwargs)
    return [field for field in fresh if carried[field] != fresh[field]]


def _fills(sketch):
    holes = sketch.holes()
    return [
        sketch.fill({hole.name: value for hole, value in zip(holes, values)})
        for values in itertools.product(*(hole.domain for hole in holes))
    ]


SCENARIOS = [scenario1, scenario2, scenario3, campus_scenario]


@pytest.mark.parametrize("order", ["suite", "reverse"])
@pytest.mark.parametrize("build", SCENARIOS, ids=lambda build: build.__name__)
def test_one_memo_across_every_sketch_fill_agrees(build, order):
    sketch = build().sketch
    fills = _fills(sketch)
    assert len(fills) == 2 ** len(sketch.holes())
    if order == "reverse":
        fills.reverse()
    memo = TransferMemo()
    failures = [
        (index, fields)
        for index, config in enumerate(fills)
        if (fields := _mismatches(config, memo))
    ]
    assert failures == []
    # The memo did carry transfers from fill to fill.
    assert any(results for _, _, results in memo.sessions.values())


@pytest.mark.parametrize("build", SCENARIOS, ids=lambda build: build.__name__)
def test_one_memo_across_ibgp_and_hot_potato_runs(build):
    scenario = build()
    weights = WeightConfig(scenario.topology)
    for index, link in enumerate(scenario.topology.links):
        weights.set_weight(link.a, link.b, 1 + (index * 7) % 5)
    memo = TransferMemo()
    for _ in range(2):
        for kwargs in (
            {},
            {"ibgp": True},
            {"link_cost": weights.concrete_weight},
            {"ibgp": True, "link_cost": weights.concrete_weight},
        ):
            assert _mismatches(scenario.paper_config, memo, **kwargs) == [], kwargs


@pytest.fixture
def two_as_chain():
    """E1 (AS 10) -- A - B - C (all AS 20) -- E2 (AS 30), plus a B-D-C
    detour in AS 20; A raises the local preference of routes from E1,
    which only iBGP carries on to B."""
    topo = Topology("two-as-chain")
    topo.add_router("E1", asn=10, originated=[Prefix("10.1.0.0/24")])
    topo.add_router("A", asn=20)
    topo.add_router("B", asn=20)
    topo.add_router("C", asn=20)
    topo.add_router("D", asn=20, originated=[Prefix("10.4.0.0/24")])
    topo.add_router("E2", asn=30, originated=[Prefix("10.2.0.0/24")])
    for a, b in [("E1", "A"), ("A", "B"), ("B", "C"), ("C", "E2"), ("B", "D"), ("D", "C")]:
        topo.add_link(a, b)
    config = NetworkConfig(topo)
    config.set_map("A", Direction.IN, "E1", _local_pref_map("lp300", 300))
    config.set_map("C", Direction.IN, "E2", _local_pref_map("lp250", 250))
    return config


def _local_pref_map(name, local_pref):
    return RouteMap(
        name,
        (
            RouteMapLine(
                seq=10,
                action=PERMIT,
                sets=(SetClause(SetAttribute.LOCAL_PREF, local_pref),),
            ),
        ),
    )


def test_memo_tells_ibgp_from_ebgp_sessions(two_as_chain):
    """The same sessions carry local preference under iBGP and reset
    it under eBGP, so a transfer made in one mode must not answer the
    other."""
    with_ibgp = simulate(two_as_chain, ibgp=True)
    without = simulate(two_as_chain)
    assert (
        with_ibgp.best("B", Prefix("10.1.0.0/24")).local_pref
        != without.best("B", Prefix("10.1.0.0/24")).local_pref
    )
    memo = TransferMemo()
    for ibgp in (False, True, False, True, True, False):
        assert _mismatches(two_as_chain, memo, ibgp=ibgp) == [], ibgp
        assert memo.ibgp is ibgp


def _replaced(config, router, direction, neighbor, routemap):
    """A copy of ``config`` with one session's map replaced."""
    copy = config.copy()
    copy.set_map(router, direction, neighbor, routemap)
    return copy


@pytest.mark.parametrize("direction", [Direction.IN, Direction.OUT])
def test_replaced_map_object_on_an_otherwise_identical_config(two_as_chain, direction):
    """A map object replaced between runs -- by an equal copy or by a
    different policy -- replaces its session's memo entry; every other
    session keeps its entry."""
    router, neighbor = ("A", "E1") if direction == Direction.IN else ("B", "C")
    speaker, receiver = (neighbor, router) if direction == Direction.IN else (router, neighbor)
    original = two_as_chain.get_map(router, direction, neighbor) or RouteMap.permit_all("pass")
    equal_copy = RouteMap(original.name, original.lines)
    assert equal_copy == original and equal_copy is not original
    configs = [
        two_as_chain,
        _replaced(two_as_chain, router, direction, neighbor, equal_copy),
        _replaced(two_as_chain, router, direction, neighbor, RouteMap.deny_all("deny")),
        _replaced(two_as_chain, router, direction, neighbor, _local_pref_map("lp50", 50)),
        two_as_chain,
    ]
    memo = TransferMemo()
    for config in configs:
        kept = dict(memo.sessions)
        assert _mismatches(config, memo, ibgp=True) == []
        export_map, import_map, _ = memo.sessions[(speaker, receiver)]
        held = import_map if direction == Direction.IN else export_map
        assert held is config.get_map(router, direction, neighbor)
        for session, entry in kept.items():
            if session != (speaker, receiver):
                assert memo.sessions[session] is entry


def test_memo_starts_over_on_another_topology():
    memo = TransferMemo()
    first, second = scenario1(), scenario2()
    for config in (first.paper_config, second.paper_config, first.paper_config):
        assert _mismatches(config, memo) == []
        assert memo.topology is config.topology
        assert set(memo.sessions) == set(config.topology.sessions())
    # A structurally equal topology is still another topology object.
    rebuilt = scenario1().paper_config
    assert rebuilt.topology is not first.paper_config.topology
    assert _mismatches(rebuilt, memo) == []
    assert memo.topology is rebuilt.topology


def test_memo_cannot_be_combined_with_a_recorder():
    class Recorder:
        def concrete(self, *event):
            pass

    config = scenario1().paper_config
    with pytest.raises(ValueError, match="recorder"):
        simulate(config, memo=TransferMemo(), recorder=Recorder())
    # Either one alone is fine.
    simulate(config, recorder=Recorder())
    simulate(config, memo=TransferMemo())


@pytest.mark.parametrize(
    "build",
    [lambda: ring_case(5), lambda: grid_case(3, 3), lambda: random_case(8, seed=17)],
    ids=["ring5", "grid3x3", "random8"],
)
def test_one_memo_across_random_policies_on_a_generated_network(build):
    """Different policies on one topology: sessions without a map keep
    their entries from policy to policy; oscillating seeds and round
    bounds included."""
    topology = build().config.topology
    prefixes = list(topology.all_prefixes())
    communities = [Community(100, 1), Community(100, 2)]
    memo = TransferMemo()
    for seed in list(range(12)) + list(range(11, -1, -1)):
        config = random_config(topology, seed, prefixes, communities)
        assert _mismatches(config, memo) == [], seed
        assert _mismatches(config, memo, max_rounds=3) == [], seed


def test_one_memo_across_bad_gadget_runs():
    config = _bad_gadget()
    memo = TransferMemo()
    for max_rounds in (1, 2, None, 2, None, 1):
        observed = _observe(config, memo, max_rounds=max_rounds)
        assert observed["result"][0] == "ConvergenceError"
        assert observed == _observe(config, max_rounds=max_rounds)


def test_each_oracle_world_owns_its_memo():
    """One memo per world (base and each environment mutation), filled
    by that world's probes only and never shared with another oracle."""
    scenario = scenario1()
    sketch = scenario.sketch
    holes = {hole.name: hole for hole in sketch.holes()}
    # An environment mutation renumbers one router's route-maps.
    mutation = next(
        router
        for router in sketch.topology.router_names
        if sketch.router_config(router).sessions()
    )
    values = tuple((name, str(hole.domain[0])) for name, hole in sorted(holes.items()))
    first = Oracle(sketch, scenario.specification, holes)
    second = Oracle(sketch, scenario.specification, holes)
    first.truth(AuditCase(kind="exhaustive", values=values))
    memos = [
        first._variant(None).memo,
        first._variant(mutation).memo,
        second._variant(None).memo,
    ]
    assert len({id(memo) for memo in memos}) == 3
    filled = [any(results for _, _, results in memo.sessions.values()) for memo in memos]
    assert filled == [True, False, False]
    first.truth(AuditCase(kind="environment", values=values, mutation=mutation))
    assert any(results for _, _, results in memos[1].sessions.values())
    assert not memos[2].sessions
