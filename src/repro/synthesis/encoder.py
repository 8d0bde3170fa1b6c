"""The constraint encoder: BGP semantics + requirements -> SMT terms.

This is the NetComplete-style core that both synthesis and explanation
share (the paper requires the seed specification to "use the same
encoding process as the synthesizer", Section 3).

For every candidate route ``c`` (a prefix plus an announcement path,
from :class:`~repro.synthesis.space.CandidateSpace`) the encoder
produces:

* ``filter_ok(c)`` -- the term "every export/import route-map along the
  path permits the route", with attributes threaded symbolically
  through each hop (:mod:`repro.synthesis.symexec`);
* ``lp(c)``, ``med(c)`` -- the symbolic attribute values the route has
  when held at its final router;
* ``best(c)`` -- a fresh boolean: the final router selects this route.

Selection axioms tie these together per (prefix, router): the best
route is the unique lexicographic maximum among *available* candidates
(available = parent selected it and this hop's filters permit), under
the same total order the concrete decision process uses.

Requirements are encoded on top:

* forbidden paths -> the filters must kill every candidate whose
  traffic path contains a managed matching slice (filter-level, which
  is what NetComplete-style synthesizers actually emit -- the paper's
  Scenario 1 insight);
* reachability -> some matching candidate is selected at the source;
* path preference -> listed paths are filter-permitted, local
  preferences at each divergence router are strictly ordered, and (in
  BLOCK mode, NetComplete's interpretation) every unlisted candidate at
  the source is filter-blocked -- reproducing the Scenario 2 surprise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bgp.announcement import DEFAULT_LOCAL_PREF
from ..bgp.config import Direction, NetworkConfig
from ..obs import Instrumentation
from ..runtime import Governor
from ..smt import (
    And,
    AtMostOne,
    BoolVar,
    Eq,
    FALSE,
    Gt,
    Implies,
    IntVal,
    Lt,
    Not,
    Or,
    TRUE,
    Term,
)
from ..spec.ast import (
    ForbiddenPath,
    PathPreference,
    PreferenceMode,
    Reachability,
    Specification,
)
from ..spec.semantics import expand_preference
from ..topology.paths import Path
from .holes import HoleEncoder
from .space import Candidate, CandidateSpace, EncodingError
from .symexec import AttributeUniverse, SymbolicRoute, apply_routemap_symbolic

__all__ = ["Encoding", "Encoder"]


@dataclass
class Encoding:
    """The result of one encoding run."""

    constraint: Term
    groups: Dict[str, Tuple[Term, ...]]
    holes: HoleEncoder
    space: CandidateSpace
    universe: AttributeUniverse
    best_vars: Dict[str, Term] = field(default_factory=dict)
    filter_ok: Dict[str, Term] = field(default_factory=dict)
    local_pref: Dict[str, Term] = field(default_factory=dict)
    link_cost: object = None
    ibgp: bool = False

    @property
    def num_constraints(self) -> int:
        """Top-level conjunct count (the paper's "number of constraints")."""
        return len(self.constraint.conjuncts())

    @property
    def size(self) -> int:
        """Total AST node count of the encoding."""
        return self.constraint.size()

    def best_var(self, candidate: Candidate) -> Term:
        return self.best_vars[candidate.key()]

    def selection_lookups(self) -> Tuple[Tuple[str, str, str, Tuple[str, ...]], ...]:
        """One ``(variable name, router, prefix text, hops)`` per
        candidate of the space, for evaluating the encoding under a
        simulated RIB: the selection variable ``best|{key}`` is true iff
        ``router`` selects the announcement path ``hops`` for the
        prefix.  A full encoding has exactly these selection variables;
        a requirements-only one (``include_selection=False``) names a
        subset of them, so the same lookups cover it too."""
        return tuple(
            (
                f"best|{candidate.key()}",
                candidate.router,
                str(candidate.prefix),
                candidate.path.hops,
            )
            for candidate in self.space.all()
        )

    def filter_ok_of(self, candidate: Candidate) -> Term:
        return self.filter_ok[candidate.key()]

    def local_pref_of(self, candidate: Candidate) -> Term:
        return self.local_pref[candidate.key()]


class Encoder:
    """Encodes a (possibly sketched) configuration against a spec."""

    def __init__(
        self,
        config: NetworkConfig,
        specification: Specification,
        max_path_length: Optional[int] = None,
        link_cost=None,
        ibgp: bool = False,
        governor: Optional[Governor] = None,
        obs: Optional[Instrumentation] = None,
        recorder=None,
    ) -> None:
        self.config = config
        self.specification = specification
        self.link_cost = link_cost
        self.ibgp = ibgp
        self.governor = governor
        self.obs = obs
        #: Optional transfer observer (duck-typed ``symbolic(...)``);
        #: sees every route-map application performed while threading
        #: attributes along candidate paths, so callers can capture the
        #: exact rest-of-network slice an encoding reads.
        self.recorder = recorder
        self.space = CandidateSpace.of(config.topology, max_path_length, ibgp=ibgp)
        router_configs = [
            config.router_config(name) for name in config.topology.router_names
        ]
        self.universe = AttributeUniverse.collect(router_configs, config.topology)
        self.holes = HoleEncoder()
        self._states: Dict[str, SymbolicRoute] = {}
        self._hop_permits: Dict[str, Term] = {}
        self._filter_ok: Dict[str, Term] = {}
        self._best: Dict[str, Term] = {}
        self._avail: Dict[str, Term] = {}
        #: ``encode.*`` counts not yet counted into ``obs``; :meth:`encode`
        #: counts them in once, when it returns or raises.
        self._counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Per-candidate symbolic propagation
    # ------------------------------------------------------------------

    def _tally(self, name: str) -> None:
        self._counts[name] = self._counts.get(name, 0) + 1

    def _checkpoint(self) -> None:
        if self.governor is not None:
            self.governor.checkpoint("encode")
        self._tally("encode.steps")

    def _state_of(self, candidate: Candidate) -> SymbolicRoute:
        key = candidate.key()
        cached = self._states.get(key)
        if cached is not None:
            self._tally("encode.cache_hits")
            return cached
        self._checkpoint()
        self._tally("encode.candidates")
        parent = candidate.parent()
        if parent is None:
            state = SymbolicRoute.originated(
                candidate.prefix, candidate.origin, self.universe
            )
            self._hop_permits[key] = TRUE
            self._filter_ok[key] = TRUE
        else:
            parent_state = self._state_of(parent)
            speaker = parent.router
            receiver = candidate.router
            export_map = self.config.get_map(speaker, Direction.OUT, receiver)
            import_map = self.config.get_map(receiver, Direction.IN, speaker)
            crossing = parent_state.crossing_session(speaker, self.universe)
            session_is_ibgp = self.ibgp and (
                self.config.topology.router(speaker).asn
                == self.config.topology.router(receiver).asn
            )
            export_permit, after_export = apply_routemap_symbolic(
                export_map, crossing, self.universe, self.holes
            )
            after_hop = (
                after_export if session_is_ibgp
                else after_export.reset_local_pref()
            )
            import_permit, state = apply_routemap_symbolic(
                import_map, after_hop, self.universe, self.holes
            )
            if self.recorder is not None:
                self.recorder.symbolic(
                    speaker, Direction.OUT, receiver, crossing,
                    export_permit, after_export,
                )
                self.recorder.symbolic(
                    receiver, Direction.IN, speaker, after_hop,
                    import_permit, state,
                )
            self._hop_permits[key] = And(export_permit, import_permit)
            self._filter_ok[key] = And(
                self._filter_ok[parent.key()], self._hop_permits[key]
            )
        self._states[key] = state
        return state

    def _best_var(self, candidate: Candidate) -> Term:
        key = candidate.key()
        var = self._best.get(key)
        if var is None:
            var = BoolVar(f"best|{key}")
            self._best[key] = var
        return var

    def _avail_of(self, candidate: Candidate) -> Term:
        key = candidate.key()
        cached = self._avail.get(key)
        if cached is not None:
            return cached
        parent = candidate.parent()
        self._state_of(candidate)  # ensure hop permits exist
        if parent is None:
            result: Term = TRUE
        else:
            result = And(self._best_var(parent), self._hop_permits[key])
        self._avail[key] = result
        return result

    # ------------------------------------------------------------------
    # Selection axioms
    # ------------------------------------------------------------------

    def _decision_geq(self, better: Candidate, worse: Candidate) -> Term:
        """``better`` is at least as preferred as ``worse`` under the
        BGP decision order (mirrors ``repro.bgp.decision``)."""
        self._state_of(better)
        self._state_of(worse)
        lp_b = self._states[better.key()].local_pref
        lp_w = self._states[worse.key()].local_pref
        med_b = self._states[better.key()].med
        med_w = self._states[worse.key()].med
        len_b, len_w = len(better.path), len(worse.path)
        adv_b = better.path.hops[-2] if len_b >= 2 else ""
        adv_w = worse.path.hops[-2] if len_w >= 2 else ""
        # Concrete tail of the lexicographic order: length, IGP cost to
        # the advertiser (hot-potato, concrete when link costs are
        # given), advertiser, full path (total); MED sits between
        # length and the concrete tail.
        if len_b != len_w:
            length_tail: Term = TRUE if len_b < len_w else FALSE
            return Or(Gt(lp_b, lp_w), And(Eq(lp_b, lp_w), length_tail))
        igp_b = igp_w = 0
        if self.link_cost is not None:
            if adv_b:
                igp_b = self.link_cost(better.router, adv_b)
            if adv_w:
                igp_w = self.link_cost(worse.router, adv_w)
        concrete_tail = (igp_b, adv_b, better.path.hops) <= (
            igp_w,
            adv_w,
            worse.path.hops,
        )
        med_tail = Or(
            Lt(med_b, med_w),
            And(Eq(med_b, med_w), TRUE if concrete_tail else FALSE),
        )
        return Or(Gt(lp_b, lp_w), And(Eq(lp_b, lp_w), med_tail))

    def _selection_axioms(self) -> List[Term]:
        axioms: List[Term] = []
        for prefix in self.space.prefixes:
            origin = self.space.origin_of(prefix)
            for router in self.space.topology.router_names:
                candidates = self.space.at(prefix, router)
                if not candidates:
                    continue
                if router == origin:
                    # Origination wins unconditionally at the origin.
                    for candidate in candidates:
                        value = TRUE if len(candidate.path) == 1 else FALSE
                        axioms.append(Eq(self._best_var(candidate), value))
                    continue
                best_vars = [self._best_var(c) for c in candidates]
                avails = [self._avail_of(c) for c in candidates]
                axioms.append(AtMostOne(*best_vars))
                for candidate, best, avail in zip(candidates, best_vars, avails):
                    axioms.append(Implies(best, avail))
                axioms.append(Implies(Or(*avails), Or(*best_vars)))
                for chosen in candidates:
                    self._checkpoint()
                    for other in candidates:
                        if chosen is other:
                            continue
                        axioms.append(
                            Implies(
                                And(self._best_var(chosen), self._avail_of(other)),
                                self._decision_geq(chosen, other),
                            )
                        )
        return axioms

    # ------------------------------------------------------------------
    # Requirement encoding
    # ------------------------------------------------------------------

    def _encode_forbidden(self, statement: ForbiddenPath) -> List[Term]:
        constraints: List[Term] = []
        violating = self.space.violating(statement.pattern, self.specification.managed)
        for candidate in self.space.all():
            self._checkpoint()
            if len(candidate.path) == 1:
                continue
            if candidate.key() in violating:
                self._state_of(candidate)
                constraints.append(Not(self._filter_ok[candidate.key()]))
        if not constraints:
            raise EncodingError(
                f"forbidden pattern ({statement.pattern}) matches no candidate path"
            )
        return constraints

    def _encode_reachability(self, statement: Reachability) -> List[Term]:
        from ..spec.semantics import destination_prefixes

        constraints: List[Term] = []
        prefixes = destination_prefixes(self.space.topology, statement.destination)
        for prefix in prefixes:
            options = []
            for candidate in self.space.at(prefix, statement.source):
                if statement.pattern.matches(candidate.traffic_path()):
                    options.append(self._best_var(candidate))
            if not options:
                raise EncodingError(
                    f"reachability pattern ({statement.pattern}) matches no "
                    f"candidate path for {prefix}"
                )
            constraints.append(Or(*options))
        return constraints

    def _encode_preference(self, statement: PathPreference) -> List[Term]:
        from ..spec.semantics import destination_prefixes

        constraints: List[Term] = []
        ranked = expand_preference(statement, self.space.topology, self.space.max_path_length)
        prefixes = destination_prefixes(self.space.topology, statement.destination)
        for prefix in prefixes:
            listed_hops = set()
            # (1) every listed path must survive all filters.
            for group in ranked.paths:
                for traffic_path in group:
                    candidate = Candidate(prefix, traffic_path.reversed())
                    self._state_of(candidate)
                    constraints.append(self._filter_ok[candidate.key()])
                    listed_hops.add(traffic_path.hops)
            # (2) strict local-pref ordering at every divergence router.
            for high_rank in range(len(ranked.paths)):
                for low_rank in range(high_rank + 1, len(ranked.paths)):
                    for high_path in ranked.paths[high_rank]:
                        for low_path in ranked.paths[low_rank]:
                            constraints.extend(
                                self._divergence_ordering(prefix, high_path, low_path)
                            )
            # (3) interpretation of unlisted paths.
            if statement.mode == PreferenceMode.BLOCK:
                for candidate in self.space.at(prefix, statement.source):
                    if len(candidate.path) == 1:
                        continue
                    if candidate.traffic_path().hops not in listed_hops:
                        self._state_of(candidate)
                        constraints.append(Not(self._filter_ok[candidate.key()]))
            elif statement.mode == PreferenceMode.FALLBACK:
                # The dual: unlisted paths must stay *open* so they can
                # serve as last resorts when every listed path fails
                # (the administrator's Scenario 2 fix: "allow other
                # available paths as the last resort").
                for candidate in self.space.at(prefix, statement.source):
                    if len(candidate.path) == 1:
                        continue
                    if candidate.traffic_path().hops not in listed_hops:
                        self._state_of(candidate)
                        constraints.append(self._filter_ok[candidate.key()])
        return constraints

    def _divergence_ordering(self, prefix, high_path: Path, low_path: Path) -> List[Term]:
        """Strictly order local preferences where two ranked traffic
        paths diverge."""
        common = 0
        for a, b in zip(high_path.hops, low_path.hops):
            if a != b:
                break
            common += 1
        if common == 0:
            raise EncodingError(
                f"ranked paths {high_path} and {low_path} share no source"
            )
        high_suffix = Path(high_path.hops[common - 1:])
        low_suffix = Path(low_path.hops[common - 1:])
        high_candidate = Candidate(prefix, high_suffix.reversed())
        low_candidate = Candidate(prefix, low_suffix.reversed())
        self._state_of(high_candidate)
        self._state_of(low_candidate)
        lp_high = self._states[high_candidate.key()].local_pref
        lp_low = self._states[low_candidate.key()].local_pref
        constraints = [Gt(lp_high, lp_low)]
        if self._preference_mode_fallback:
            # Listed paths must also beat the default preference so
            # unlisted fallbacks lose whenever a listed path is alive.
            constraints.append(Gt(lp_low, IntVal(DEFAULT_LOCAL_PREF)))
        return constraints

    # ------------------------------------------------------------------

    def encode(self, include_selection: bool = True) -> Encoding:
        """Produce the encoding.

        ``include_selection=False`` yields only the requirement terms
        (used by the explanation engine when checking *candidate local
        statements*, whose filter-level encodings are ground and do not
        need the selection variables).

        The ``encode.*`` counters are tallied per call and counted into
        ``obs`` once at the end (no span opens inside an encode, so the
        stage they are attributed to is the same).
        """
        try:
            return self._encode(include_selection)
        finally:
            counts, self._counts = self._counts, {}
            if self.obs is not None:
                for name, amount in counts.items():
                    self.obs.count(name, amount)

    def _encode(self, include_selection: bool) -> Encoding:
        groups: Dict[str, Tuple[Term, ...]] = {}
        requirement_terms: List[Term] = []
        self._preference_mode_fallback = False
        for block in self.specification.blocks:
            block_terms: List[Term] = []
            for statement in block.statements:
                if isinstance(statement, ForbiddenPath):
                    block_terms.extend(self._encode_forbidden(statement))
                elif isinstance(statement, Reachability):
                    block_terms.extend(self._encode_reachability(statement))
                elif isinstance(statement, PathPreference):
                    self._preference_mode_fallback = (
                        statement.mode == PreferenceMode.FALLBACK
                    )
                    block_terms.extend(self._encode_preference(statement))
                    self._preference_mode_fallback = False
                else:  # pragma: no cover - exhaustive over Statement
                    raise EncodingError(f"unknown statement {statement!r}")
            groups[f"requirement:{block.name}"] = tuple(block_terms)
            requirement_terms.extend(block_terms)
        selection = self._selection_axioms() if include_selection else []
        groups["selection"] = tuple(selection)
        constraint = And(*(selection + requirement_terms))
        return Encoding(
            constraint=constraint,
            groups=groups,
            holes=self.holes,
            space=self.space,
            universe=self.universe,
            best_vars=dict(self._best),
            filter_ok=dict(self._filter_ok),
            local_pref={
                key: state.local_pref for key, state in self._states.items()
            },
            link_cost=self.link_cost,
            ibgp=self.ibgp,
        )
