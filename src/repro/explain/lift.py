"""Lifting simplified constraints into the specification language.

This is step (4) of the paper's flow -- the part the paper leaves as
future work ("the specific methods for efficiently searching the
specification language space remain an open question") but whose
intended outputs it shows in Figures 2, 4 and 5.  We implement a
working enumerative search:

1. **Candidate generation** -- local statements involving the device,
   derived from the global requirement: concrete matching slices of
   forbidden patterns through the device, blanket neighbor filters
   ``!(d -> n)`` / ``!(n -> d)``, and device-truncated preference
   chains with drop rules for unlisted suffixes (exactly the shapes of
   the paper's figures).
2. **Semantic evaluation** -- each candidate is encoded with the *same*
   synthesizer encoder (filter-level semantics) and evaluated against
   every hole assignment, giving its acceptable set.
3. **Search** -- the smallest conjunction of candidates whose
   acceptable set equals the projected acceptable set of the seed
   specification.  If none exists the lifting honestly fails and the
   caller falls back to the low-level constraint (the paper's own
   preliminary-result situation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..bgp.config import NetworkConfig
from ..obs import Instrumentation
from ..runtime import GOVERNED_ERRORS, Governor, ReproError
from ..smt import Term
from ..spec.ast import (
    ForbiddenPath,
    PathPreference,
    Reachability,
    RequirementBlock,
    Specification,
    SpecError,
    Statement,
)
from ..spec.semantics import matching_slices
from ..synthesis.encoder import Encoder
from ..topology.paths import Path, PathPattern, WILDCARD
from .project import ProjectedSpec
from .seed import SeedSpecification

__all__ = ["LiftResult", "TERM_MISS", "generate_candidates", "lift"]

AssignmentKey = Tuple[Tuple[str, str], ...]

#: Sentinel a term cache's ``lookup`` returns on a miss (``None`` is a
#: valid cached value: statements whose encoding failed).
TERM_MISS = object()


def _key(assignment: Dict[str, object]) -> AssignmentKey:
    return tuple(sorted((name, str(value)) for name, value in assignment.items()))


@dataclass
class LiftResult:
    """Outcome of the specification-language search.

    ``equivalents`` lists further statements that are *individually*
    equivalent to the found subspecification over the symbolized
    variable space -- e.g. the paper's Figure 5 shows two transit
    slices through R2 that are interchangeable given the concrete rest
    of the network.

    ``exhausted`` marks a search that was interrupted by a governed
    limit (deadline, budget, cancellation): the result is then the best
    *partial* lift over the candidates explored before the interrupt,
    not a verdict on the full candidate space.
    """

    statements: Tuple[Statement, ...]
    lifted: bool
    candidates_tried: int
    equivalents: Tuple[Statement, ...] = ()
    exhausted: bool = False

    @property
    def is_empty(self) -> bool:
        """An empty subspecification: the device may do anything."""
        return self.lifted and not self.statements


def generate_candidates(
    device: str,
    specification: Specification,
    seed: SeedSpecification,
    max_candidates: int = 64,
    governor: Optional[Governor] = None,
    obs: Optional[Instrumentation] = None,
) -> Tuple[Statement, ...]:
    """Local candidate statements for ``device``."""
    space = seed.encoding.space
    topology = space.topology
    found: Dict[str, Statement] = {}

    def add(statement: Statement) -> None:
        if governor is not None:
            governor.checkpoint("lift")
        if obs is not None:
            obs.count("lift.candidates_generated")
        found.setdefault(str(statement), statement)

    # Blanket neighbor filters (Figure 2's shape).
    for neighbor in topology.neighbors(device):
        add(ForbiddenPath(PathPattern.exact(device, neighbor)))
        add(ForbiddenPath(PathPattern.exact(neighbor, device)))

    for statement in specification.statements():
        if isinstance(statement, ForbiddenPath):
            _forbidden_slice_candidates(device, statement, space, add)
        elif isinstance(statement, PathPreference):
            _preference_candidates(device, statement, space, add)
        elif isinstance(statement, Reachability):
            _reachability_candidates(device, statement, space, add)
    return tuple(itertools.islice(found.values(), max_candidates))


def _reachability_candidates(device, statement, space, add) -> None:
    """Device-truncated reachability obligations.

    For each concrete path satisfying the global pattern and passing
    through the device, the suffix from the device is a candidate local
    obligation: "keep reaching the destination this way from here".
    """
    from ..spec.semantics import destination_prefixes

    try:
        prefixes = destination_prefixes(space.topology, statement.destination)
    except Exception:
        return
    seen: Set[Tuple[str, ...]] = set()
    for prefix in prefixes:
        for candidate in space.at(prefix, statement.source):
            traffic = candidate.traffic_path()
            if device not in traffic.hops:
                continue
            if not statement.pattern.matches(traffic):
                continue
            index = traffic.hops.index(device)
            # Two truncation points: at the device, and one hop before
            # it -- the device's export toward that neighbor is often
            # the deciding filter (e.g. R1's export to P1 gates
            # (P1 -> R1 -> ... -> C)).
            starts = [index] if index == 0 else [index, index - 1]
            for start in starts:
                suffix = traffic.hops[start:]
                if len(suffix) < 2 or suffix in seen:
                    continue
                seen.add(suffix)
                add(Reachability(PathPattern(suffix)))
                if len(suffix) > 2:
                    add(Reachability(_wildcard_last(suffix)))


def _forbidden_slice_candidates(device, statement, space, add) -> None:
    """Concrete matching slices through the device (Figure 5's shape)."""
    seen: Set[Tuple[str, ...]] = set()
    for candidate in space.all():
        traffic = candidate.traffic_path()
        if device not in traffic.hops:
            continue
        for start, end in matching_slices(statement.pattern, traffic):
            slice_hops = traffic.hops[start:end]
            if device not in slice_hops or len(slice_hops) < 2:
                continue
            if slice_hops in seen:
                continue
            seen.add(slice_hops)
            add(ForbiddenPath(PathPattern(slice_hops)))


def _preference_candidates(device, statement, space, add) -> Set[Tuple[str, ...]]:
    """Device-truncated preference chains plus drop rules for unlisted
    suffixes (Figure 4's shape)."""
    try:
        from ..spec.semantics import destination_prefixes, expand_preference

        ranked = expand_preference(statement, space.topology, space.max_path_length)
        prefixes = destination_prefixes(space.topology, statement.destination)
    except SpecError:
        return set()
    listed_suffixes: Set[Tuple[str, ...]] = set()
    suffix_patterns: List[PathPattern] = []
    for group in ranked.paths:
        group_suffixes: List[PathPattern] = []
        for traffic_path in group:
            if device not in traffic_path.hops:
                continue
            index = traffic_path.hops.index(device)
            suffix = traffic_path.hops[index:]
            if len(suffix) < 2:
                continue
            listed_suffixes.add(suffix)
            group_suffixes.append(_wildcard_last(suffix))
        if group_suffixes:
            suffix_patterns.append(group_suffixes[0])
    if len(suffix_patterns) >= 2:
        # Subspecifications state the ordering only; drop rules for
        # unlisted paths are separate explicit statements (the paper's
        # Figure 4 lists them that way).
        try:
            from ..spec.ast import PreferenceMode

            add(PathPreference(tuple(suffix_patterns), mode=PreferenceMode.ORDER))
        except SpecError:
            pass
    # Drop rules for unlisted suffixes through the device.
    for prefix in prefixes:
        for candidate in space.at(prefix, statement.source):
            traffic = candidate.traffic_path()
            if device not in traffic.hops:
                continue
            index = traffic.hops.index(device)
            suffix = traffic.hops[index:]
            if len(suffix) < 2 or suffix in listed_suffixes:
                continue
            add(ForbiddenPath(_wildcard_last(suffix)))
    return listed_suffixes


def _wildcard_last(hops: Tuple[str, ...]) -> PathPattern:
    """``(a, b, c)`` -> pattern ``a -> b -> ... -> c`` (the paper's
    display form for suffixes reaching a remote destination)."""
    if len(hops) <= 2:
        return PathPattern(hops)
    return PathPattern(tuple(hops[:-1]) + (WILDCARD, hops[-1]))


def _statement_size(statement: Statement) -> int:
    """Syntactic size of a statement (total pattern elements)."""
    if isinstance(statement, ForbiddenPath):
        return len(statement.pattern.elements)
    if isinstance(statement, PathPreference):
        return sum(len(pattern.elements) for pattern in statement.ranked)
    if isinstance(statement, Reachability):
        return len(statement.pattern.elements)
    return 0


def _statement_term(
    statement: Statement,
    sketch: NetworkConfig,
    specification: Specification,
    seed: SeedSpecification,
    governor: Optional[Governor] = None,
    obs: Optional[Instrumentation] = None,
    recorder=None,
    term_cache=None,
) -> Optional[Term]:
    """The filter-level encoding of a candidate statement on the sketch
    (same encoder as the synthesizer; selection axioms are not needed
    because the projection envs already carry the ``best`` values).

    ``term_cache`` is a :class:`~repro.explain.family.StatementTermCache`
    (``lookup``/``tap``/``store``): statement encodings are memoized by
    statement text, shared across requirement blocks and -- when the
    encoding never traverses the sketch's symbolized route-map -- across
    sketches of the whole batch.  A hit skips the encode, legitimately
    including its recorder events: statement encoders traverse a subset
    of the hops the seed encode already recorded with identical inputs,
    so the skipped events are exact duplicates the recorder would
    deduplicate anyway.
    """
    text = str(statement)
    tap = recorder
    if term_cache is not None:
        hit = term_cache.lookup(text, obs=obs)
        if hit is not TERM_MISS:
            return hit
        tap = term_cache.tap(recorder)
    block = RequirementBlock("local", (statement,))
    local_spec = Specification((block,), specification.managed)
    try:
        encoder = Encoder(
            sketch,
            local_spec,
            seed.encoding.space.max_path_length,
            seed.encoding.link_cost,
            ibgp=seed.encoding.ibgp,
            governor=governor,
            obs=obs,
            recorder=tap,
        )
        encoding = encoder.encode(include_selection=False)
        term: Optional[Term] = encoding.constraint
    except ReproError:
        raise  # governed interrupts must not be swallowed
    except Exception:
        term = None
    if term_cache is not None:
        term_cache.store(text, term, tap)
    return term


def lift(
    device: str,
    sketch: NetworkConfig,
    specification: Specification,
    seed: SeedSpecification,
    projected: ProjectedSpec,
    envs: Dict[AssignmentKey, Dict[str, object]],
    max_conjunction: int = 3,
    governor: Optional[Governor] = None,
    obs: Optional[Instrumentation] = None,
    recorder=None,
    term_cache=None,
) -> LiftResult:
    """Search the specification language for an equivalent subspec.

    ``envs`` maps each hole-assignment key to the evaluation
    environment produced during projection (hole values plus simulated
    selection values).

    When a ``governor`` limit fires mid-search, the search degrades
    instead of raising: the candidates already evaluated are still
    searched for a singleton equivalent (no further budget is spent),
    and the result is marked ``exhausted``.
    """
    all_keys = set(envs)
    target = {_key(assignment) for assignment in projected.acceptable}
    if target == all_keys:
        return LiftResult(statements=(), lifted=True, candidates_tried=0)

    exhausted = False
    evaluated: List[Tuple[Statement, FrozenSet[AssignmentKey]]] = []
    try:
        candidates = generate_candidates(
            device, specification, seed, governor=governor, obs=obs
        )
        for statement in candidates:
            if governor is not None:
                governor.checkpoint("lift")
            if obs is not None:
                obs.count("lift.candidates_evaluated")
            term = _statement_term(
                statement, sketch, specification, seed, governor=governor, obs=obs,
                recorder=recorder, term_cache=term_cache,
            )
            if term is None:
                continue
            try:
                accepted = frozenset(
                    key for key, env in envs.items() if bool(term.evaluate(env))
                )
            except KeyError:
                continue
            evaluated.append((statement, accepted))
    except GOVERNED_ERRORS:
        exhausted = True

    # A statement can participate only if it holds on every acceptable
    # assignment (otherwise the conjunction would exclude valid configs).
    necessary = [(s, acc) for s, acc in evaluated if target <= acc]
    # Tightest acceptable set first; syntactically smaller statements
    # win ties so blanket patterns beat longer equivalent slices.
    necessary.sort(key=lambda pair: (len(pair[1]), _statement_size(pair[0]), str(pair[0])))

    singleton_equivalents = tuple(
        statement for statement, accepted in necessary if accepted == target
    )
    if not exhausted:
        try:
            for size in range(1, max_conjunction + 1):
                for combo in itertools.combinations(necessary, size):
                    if governor is not None:
                        governor.checkpoint("lift")
                    if obs is not None:
                        obs.count("lift.combinations")
                    intersection = set(all_keys)
                    for _, accepted in combo:
                        intersection &= accepted
                    if intersection == target:
                        chosen = tuple(statement for statement, _ in combo)
                        others = tuple(
                            s for s in singleton_equivalents if s not in chosen
                        )
                        return LiftResult(
                            statements=chosen,
                            lifted=True,
                            candidates_tried=len(evaluated),
                            equivalents=others,
                        )
        except GOVERNED_ERRORS:
            exhausted = True
    if exhausted and singleton_equivalents:
        # Partial lift: a single explored statement already matches the
        # target exactly, so a (possibly non-minimal) lift exists.
        chosen = (singleton_equivalents[0],)
        return LiftResult(
            statements=chosen,
            lifted=True,
            candidates_tried=len(evaluated),
            equivalents=tuple(s for s in singleton_equivalents[1:]),
            exhausted=True,
        )
    return LiftResult(
        statements=(),
        lifted=False,
        candidates_tried=len(evaluated),
        exhausted=exhausted,
    )
