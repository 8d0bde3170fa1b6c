"""Tests for candidate-route enumeration, the shared per-topology
space cache and its memoized forbidden-path violation sets."""

import sys
import threading

import pytest

from repro.explain.symbolize import symbolize_router
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
from repro.smt import Not
from repro.spec import ForbiddenPath, SpecError
from repro.spec.semantics import violates_forbidden
from repro.synthesis import Candidate, CandidateSpace, Encoder, EncodingError
from repro.topology import Path, PathPattern, Prefix, Topology


class TestCandidate:
    def test_orientation(self):
        candidate = Candidate(Prefix("10.0.0.0/24"), Path(("O", "M", "R")))
        assert candidate.origin == "O"
        assert candidate.router == "R"
        assert candidate.traffic_path() == Path(("R", "M", "O"))

    def test_parent(self):
        candidate = Candidate(Prefix("10.0.0.0/24"), Path(("O", "M", "R")))
        parent = candidate.parent()
        assert parent is not None
        assert parent.path == Path(("O", "M"))
        origin = Candidate(Prefix("10.0.0.0/24"), Path(("O",)))
        assert origin.parent() is None

    def test_key_is_stable_and_distinct(self):
        c1 = Candidate(Prefix("10.0.0.0/24"), Path(("O", "R")))
        c2 = Candidate(Prefix("10.0.0.0/24"), Path(("O", "M", "R")))
        assert c1.key() != c2.key()
        assert c1.key() == Candidate(Prefix("10.0.0.0/24"), Path(("O", "R"))).key()


class TestCandidateSpace:
    def test_counts_on_line(self, line_topology):
        space = CandidateSpace(line_topology)
        a_pfx = Prefix("10.0.0.0/24")
        assert [c.path.hops for c in space.at(a_pfx, "A")] == [("A",)]
        assert [c.path.hops for c in space.at(a_pfx, "B")] == [("A", "B")]
        assert [c.path.hops for c in space.at(a_pfx, "Z")] == [("A", "B", "Z")]

    def test_square_has_two_candidates_at_far_corner(self, square_topology):
        space = CandidateSpace(square_topology)
        s_pfx = Prefix("10.1.0.0/24")
        hops = {c.path.hops for c in space.at(s_pfx, "T")}
        assert hops == {("S", "L", "T"), ("S", "R", "T")}

    def test_origin_of(self, hotnets_topology):
        space = CandidateSpace(hotnets_topology)
        assert space.origin_of(Prefix("123.0.1.0/24")) == "C"
        assert space.origin_of(Prefix("200.0.1.0/24")) == "D1"

    def test_through(self, square_topology):
        space = CandidateSpace(square_topology)
        through_l = list(space.through("L"))
        assert all("L" in c.path.hops for c in through_l)
        assert through_l

    def test_max_path_length_bounds(self, hotnets_topology):
        unbounded = CandidateSpace(hotnets_topology)
        bounded = CandidateSpace(hotnets_topology, max_path_length=3)
        assert len(bounded) < len(unbounded)
        assert all(len(c.path) <= 3 for c in bounded.all())

    def test_anycast_rejected(self):
        topo = Topology()
        shared = Prefix("10.0.0.0/24")
        topo.add_router("A", asn=1, originated=[shared])
        topo.add_router("B", asn=2, originated=[shared])
        topo.add_link("A", "B")
        with pytest.raises(EncodingError):
            CandidateSpace(topo)

    def test_deterministic_order(self, hotnets_topology):
        space1 = CandidateSpace(hotnets_topology)
        space2 = CandidateSpace(hotnets_topology)
        assert [c.key() for c in space1.all()] == [c.key() for c in space2.all()]

    def test_candidate_count_is_substantial(self, hotnets_topology):
        # The encoding quantifies over a meaningful number of routes;
        # this anchors the paper's ">1000 constraints" observation.
        space = CandidateSpace(hotnets_topology)
        assert len(space) > 50


# ---------------------------------------------------------------------------
# The shared space (``CandidateSpace.of``) and its violation sets
# ---------------------------------------------------------------------------


def _scenario_network(build):
    scenario = build()
    return scenario.sketch, scenario.specification


def _generated_network(build):
    case = build()
    sketch, _ = symbolize_router(case.config, case.device)
    return sketch, case.specification


NETWORKS = [
    ("scenario1", lambda: _scenario_network(scenario1)),
    ("scenario2", lambda: _scenario_network(scenario2)),
    ("scenario3", lambda: _scenario_network(scenario3)),
    ("campus", lambda: _scenario_network(campus_scenario)),
    ("chain4", lambda: _generated_network(lambda: chain_case(4))),
    ("ring5", lambda: _generated_network(lambda: ring_case(5))),
    ("grid2x3", lambda: _generated_network(lambda: grid_case(2, 3))),
    ("random5", lambda: _generated_network(lambda: random_case(5, seed=3))),
    ("leafspine2x3", lambda: _generated_network(lambda: leafspine_case(2, 3))),
]
NETWORK_IDS = [name for name, _ in NETWORKS]
#: (max_path_length, ibgp) variants every network is checked under.
VARIANTS = [(None, False), (None, True), (4, False), (4, True)]
VARIANT_IDS = [f"len{length}-ibgp{int(ibgp)}" for length, ibgp in VARIANTS]


def _patterns(topology, specification):
    """The specification's forbidden patterns plus blanket session
    patterns (the shape of the lifting stage's local candidates)."""
    patterns = [
        statement.pattern
        for statement in specification.statements()
        if isinstance(statement, ForbiddenPath)
    ]
    for a, b in list(topology.sessions())[:6]:
        patterns.append(PathPattern.exact(a, b))
    return patterns


class _UnmemoizedEncoder(Encoder):
    """The encoder as it was before topology-only facts were shared: a
    private, freshly enumerated space, and ``violates_forbidden`` run
    per candidate on every encode."""

    def __init__(self, config, specification, max_path_length=None, **kwargs):
        super().__init__(config, specification, max_path_length, **kwargs)
        self.space = CandidateSpace(config.topology, max_path_length, ibgp=self.ibgp)

    def _encode_forbidden(self, statement):
        constraints = []
        managed = self.specification.managed
        for candidate in self.space.all():
            self._checkpoint()
            if len(candidate.path) == 1:
                continue
            if violates_forbidden(candidate.traffic_path(), statement.pattern, managed):
                self._state_of(candidate)
                constraints.append(Not(self._filter_ok[candidate.key()]))
        if not constraints:
            raise EncodingError(
                f"forbidden pattern ({statement.pattern}) matches no candidate path"
            )
        return constraints


def _observe_encode(encoder_class, sketch, specification, max_path_length, ibgp, selection):
    obs = Instrumentation()
    governor = Governor()
    encoder = encoder_class(
        sketch, specification, max_path_length, ibgp=ibgp, governor=governor, obs=obs,
    )
    try:
        encoding = encoder.encode(include_selection=selection)
    except (EncodingError, SpecError) as exc:
        return (type(exc).__name__, str(exc)), None
    counters = dict(obs.metrics.counters)
    checkpoints = governor.accounting().get("checkpoints:encode", 0)
    return (counters, checkpoints), encoding


@pytest.mark.parametrize("max_path_length,ibgp", VARIANTS, ids=VARIANT_IDS)
@pytest.mark.parametrize("name,build", NETWORKS, ids=NETWORK_IDS)
class TestSharedSpace:
    def test_same_candidates_in_the_same_order(self, name, build, max_path_length, ibgp):
        sketch, _ = build()
        shared = CandidateSpace.of(sketch.topology, max_path_length, ibgp=ibgp)
        fresh = CandidateSpace(sketch.topology, max_path_length, ibgp=ibgp)
        assert [c.key() for c in shared.all()] == [c.key() for c in fresh.all()]
        for prefix in fresh.prefixes:
            for router in sketch.topology.router_names:
                assert shared.at(prefix, router) == fresh.at(prefix, router)
        assert CandidateSpace.of(sketch.topology, max_path_length, ibgp=ibgp) is shared

    def test_violating_equals_brute_force(self, name, build, max_path_length, ibgp):
        sketch, specification = build()
        space = CandidateSpace.of(sketch.topology, max_path_length, ibgp=ibgp)
        for pattern in _patterns(sketch.topology, specification):
            for managed in (specification.managed, frozenset()):
                expected = frozenset(
                    candidate.key()
                    for candidate in space.all()
                    if violates_forbidden(candidate.traffic_path(), pattern, managed)
                )
                assert space.violating(pattern, managed) == expected
                assert space.violating(pattern, managed) is space.violating(pattern, managed)

    def test_encodings_identical_with_and_without_the_memo(
        self, name, build, max_path_length, ibgp
    ):
        sketch, specification = build()
        for selection in (True, False):
            work, memoized = _observe_encode(
                Encoder, sketch, specification, max_path_length, ibgp, selection
            )
            reference_work, reference = _observe_encode(
                _UnmemoizedEncoder, sketch, specification, max_path_length, ibgp, selection
            )
            # Same steps, same governor budget, same error if any.
            assert work == reference_work
            if reference is None:
                continue
            assert memoized.constraint is reference.constraint
            assert memoized.groups.keys() == reference.groups.keys()
            for group, terms in reference.groups.items():
                assert len(memoized.groups[group]) == len(terms)
                assert all(a is b for a, b in zip(memoized.groups[group], terms))
            assert memoized.best_vars.keys() == reference.best_vars.keys()
            assert memoized.filter_ok.keys() == reference.filter_ok.keys()
            assert all(
                memoized.filter_ok[key] is term for key, term in reference.filter_ok.items()
            )

    def test_selection_lookups_cover_exactly_the_selection_variables(
        self, name, build, max_path_length, ibgp
    ):
        sketch, specification = build()
        _, encoding = _observe_encode(
            Encoder, sketch, specification, max_path_length, ibgp, True
        )
        if encoding is None:
            pytest.skip("specification does not encode under this bound")
        lookups = encoding.selection_lookups()
        assert len(lookups) == len(encoding.best_vars)
        assert {name for name, *_ in lookups} == {
            variable.name for variable in encoding.best_vars.values()
        }
        # The lookups agree with the candidate keys they were read off.
        for name, router, prefix_text, hops in lookups:
            key = name.split("|", 1)[1]
            assert key == f"{prefix_text}|{'.'.join(hops)}"
            assert router == hops[-1]


def _chain(length, name="chain"):
    topology = Topology(name)
    for index in range(length):
        originated = [Prefix(f"10.{index}.0.0/24")] if index == 0 else []
        topology.add_router(f"N{index}", asn=index + 1, originated=originated)
    for index in range(length - 1):
        topology.add_link(f"N{index}", f"N{index + 1}")
    return topology


class TestSpaceCache:
    def test_lru_stays_bounded(self):
        for length in range(2, 2 + CandidateSpace.CACHE_SIZE + 8):
            CandidateSpace.of(_chain(length))
            assert len(CandidateSpace._cache) <= CandidateSpace.CACHE_SIZE
        assert len(CandidateSpace._cache) == CandidateSpace.CACHE_SIZE

    def test_structure_not_identity_is_the_key(self):
        one = CandidateSpace.of(_chain(3, "one"))
        two = CandidateSpace.of(_chain(3, "two"))
        assert one is two
        assert CandidateSpace.of(_chain(3), max_path_length=2) is not one
        assert CandidateSpace.of(_chain(3), ibgp=True) is not one

    def test_added_link_gets_a_new_space(self):
        topology = _chain(4)
        before = CandidateSpace.of(topology)
        topology.add_link("N0", "N3")
        after = CandidateSpace.of(topology)
        assert after is not before
        fresh = CandidateSpace(topology)
        assert [c.key() for c in after.all()] == [c.key() for c in fresh.all()]
        assert len(after) > len(before)

    def test_edited_topology_never_serves_its_old_structure(self):
        CandidateSpace._cache.clear()
        edited = _chain(4, "edited")
        assert CandidateSpace.of(edited).topology is edited
        edited.add_link("N0", "N2")
        # A structurally equal twin of the *old* topology must get a
        # space whose own topology still has that structure.
        twin = _chain(4, "twin")
        space = CandidateSpace.of(twin)
        assert space.topology.links == twin.links
        assert [c.key() for c in space.all()] == [
            c.key() for c in CandidateSpace(twin).all()
        ]

    def test_concurrent_encodes(self):
        """Eight threads encode the case studies at once through the
        shared spaces; every encoding is the serial one."""
        networks = [_scenario_network(build) for build in (scenario1, scenario2, scenario3)]
        serial = [
            Encoder(sketch, specification).encode().constraint
            for sketch, specification in networks
        ]
        CandidateSpace._cache.clear()
        errors = []
        results = {}

        def work(index):
            try:
                for round_ in range(3):
                    offset = (index + round_) % len(networks)
                    sketch, specification = networks[offset]
                    constraint = Encoder(sketch, specification).encode().constraint
                    results[(index, round_)] = (offset, constraint)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 8 * 3
        for offset, constraint in results.values():
            assert constraint is serial[offset]
