"""Shared computation across families of explanation questions.

A *job family* groups the per-line questions of one (router,
requirement block): siblings symbolize different lines of the same
device against the same specification, so almost everything they
compute -- the seed encoding's traversal of the rest of the network,
the concrete simulations behind projection, the filter-level encodings
of candidate local statements -- is repeated work.  This module is the
cache layer a worker process threads through every family member:

* ``seed_for`` memoizes one **full** encode per sketch and reassembles
  each requirement's seed from the recorded per-group terms.  The
  selection axioms traverse every candidate regardless of which
  requirement is asked, so the reassembled restricted seed is
  term-for-term identical to a fresh restricted encode.
* :class:`SimulationCache` memoizes converged routing outcomes by the
  rendered text of the filled configuration -- sibling jobs fill their
  sketches back to (mostly) the same concrete networks.
* ``term_cache_for`` memoizes candidate-statement encodings: always
  across requirement blocks of one sketch (a statement's filter-level
  term does not depend on the requirement being asked), and across
  *sketches* whenever the statement's encoding never traverses a
  symbolized route-map -- then the term is hole-free and, by
  hash-consing, identical under every sibling sketch.

Every cache replays the transfer/simulation events it observed into
the requesting job's :class:`~repro.farm.readset.TransferRecorder`
(capture keeps one event per distinct transfer, keyed by
:func:`transfer_key` like the recorder's own dedup, but no device
filter; the recorder's filter runs on replay), so recorded read-sets
-- and therefore cache keys and invalidation -- are byte-identical to
unshared runs.  The farm additionally hands every member of one
family a shared entry memo (see
:class:`~repro.farm.readset.TransferRecorder`), so a transfer the
siblings all observe is serialized and digested once.

Sharing is only legal ungoverned: a deadline or budget makes answers
depend on how much work *this* run performed, which a cache would
falsify.  The engine enforces this (``shared`` + ``governor`` is a
``ValueError``) and the farm only enables sharing when a batch runs
without ``--timeout``/``--budget``.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..bgp.config import NetworkConfig
from ..bgp.render import render_network
from ..bgp.simulation import ConvergenceError, simulate
from ..bgp.sketch import Hole
from ..obs import Instrumentation
from ..smt import Term
from ..smt.builders import And
from ..spec.ast import Specification
from ..synthesis.encoder import Encoder, Encoding
from ..synthesis.symexec import SymbolicRoute
from .lift import TERM_MISS
from .seed import SeedSpecification
from .symbolize import FieldRef

__all__ = [
    "SharedCaches",
    "SimulationCache",
    "StatementTermCache",
    "route_key",
    "transfer_key",
]


def _sketch_key(holes: Dict[str, Hole]) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """A sketch is pinned by its hole names and stringified domains
    (the same identification the engine's question cache uses)."""
    return tuple(
        (name, tuple(str(value) for value in holes[name].domain))
        for name in sorted(holes)
    )


def route_key(state: SymbolicRoute) -> tuple:
    """A symbolic attribute state as a hashable value.

    Terms are hash-consed, so structurally equal states produce equal
    keys even across encoder instances -- and two states with equal
    keys serialize to the same payload.
    """
    return (
        str(state.prefix),
        state.local_pref,
        state.med,
        state.next_hop,
        tuple(sorted((str(c), t) for c, t in state.communities.items())),
    )


def transfer_key(
    seam: str, owner: str, direction: str, neighbor: str, route
) -> tuple:
    """The value identity of one route-map transfer's input.

    ``route`` is a :class:`SymbolicRoute` on the ``"symbolic"`` seam
    (keyed by :func:`route_key`) and a frozen, hashable
    :class:`~repro.bgp.announcement.Announcement` on the
    ``"concrete"`` one.  Read-set recording and event capture both
    dedup on it; nothing is serialized to compute it.
    """
    if seam == "symbolic":
        return (seam, owner, direction, neighbor, route_key(route))
    return (seam, owner, direction, neighbor, route)


class _CaptureRecorder:
    """Buffers one event per distinct transfer for later replay.

    The capturing run must not filter by device: a later job with a
    *different* device filter replays the same stream through its own
    recorder, which applies its own filtering.  Events are keyed by
    :func:`transfer_key` and the first one wins -- exactly the
    recorder's own dedup rule, so a dropped duplicate is one the
    recorder would have ignored.  Event order and duplication never
    reach read-set bytes (the recorder's payload sorts), so replay is
    exact -- which is also why the two seams keep separate buffers.
    """

    def __init__(self) -> None:
        #: transfer key -> (state in, permit, state out)
        self._symbolic: Dict[tuple, tuple] = {}
        #: transfer key -> the announcement the map returned (or None)
        self._concrete: Dict[tuple, object] = {}

    def symbolic(self, owner, direction, neighbor, state_in, permit, state_out) -> None:
        key = transfer_key("symbolic", owner, direction, neighbor, state_in)
        if key not in self._symbolic:
            self._symbolic[key] = (state_in, permit, state_out)

    def concrete(self, owner, direction, neighbor, announcement, result) -> None:
        key = transfer_key("concrete", owner, direction, neighbor, announcement)
        if key not in self._concrete:
            self._concrete[key] = result

    def replay(self, recorder) -> None:
        if recorder is None:
            return
        for (_, owner, direction, neighbor, _), event in self._symbolic.items():
            recorder.symbolic(owner, direction, neighbor, *event)
        for (_, owner, direction, neighbor, announcement), result in self._concrete.items():
            recorder.concrete(owner, direction, neighbor, announcement, result)


class SimulationCache:
    """Memoizes concrete control-plane runs by rendered configuration.

    Sibling jobs fill their sketches back to overlapping concrete
    networks -- every job's "original value" assignment *is* the
    synthesized network -- so converged outcomes are keyed by the full
    rendered text of the filled configuration (never by the hole
    values, which name different fields in different sketches).
    Non-convergence is cached too and re-raised on hit.  Runs with a
    link-cost callable or a governor bypass the cache entirely.
    """

    def __init__(self) -> None:
        self._entries: Dict[
            Tuple[str, bool],
            Tuple[object, Optional[ConvergenceError], _CaptureRecorder],
        ] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def simulate(
        self,
        filled: NetworkConfig,
        link_cost=None,
        ibgp: bool = False,
        governor=None,
        obs: Optional[Instrumentation] = None,
        recorder=None,
    ):
        if link_cost is not None or governor is not None:
            return simulate(
                filled, link_cost=link_cost, ibgp=ibgp, governor=governor,
                obs=obs, recorder=recorder,
            )
        key = (render_network(filled), bool(ibgp))
        hit = self._entries.get(key)
        if hit is not None:
            outcome, error, capture = hit
            if obs is not None:
                obs.count("project.sim_cache_hits")
            capture.replay(recorder)
            if error is not None:
                raise error
            return outcome
        capture = _CaptureRecorder()
        try:
            outcome = simulate(filled, ibgp=ibgp, obs=obs, recorder=capture)
        except ConvergenceError as exc:
            self._entries[key] = (None, exc, capture)
            capture.replay(recorder)
            raise
        self._entries[key] = (outcome, None, capture)
        capture.replay(recorder)
        return outcome


class _SeamTap:
    """Forwards recorder events while collecting traversed seams.

    Wraps the job recorder during one statement encode so the cache
    learns which ``(owner, direction, neighbor)`` route-maps the
    encoding applied -- the safety condition for cross-sketch reuse.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seams: Set[Tuple[str, str, str]] = set()

    def symbolic(self, owner, direction, neighbor, *rest) -> None:
        self.seams.add((owner, direction, neighbor))
        if self.inner is not None:
            self.inner.symbolic(owner, direction, neighbor, *rest)

    def concrete(self, owner, direction, neighbor, *rest) -> None:
        self.seams.add((owner, direction, neighbor))
        if self.inner is not None:
            self.inner.concrete(owner, direction, neighbor, *rest)


class StatementTermCache:
    """Two-tier memo for candidate-statement terms (see :func:`lift`).

    The *local* tier is per sketch and unconditional -- a sketch asks
    the same statements under every requirement block.  The *global*
    tier is shared across all sketches of the batch and guarded by the
    seams the encoding traversed: route-map traversal is structural
    (paths and neighbors, never hole values), so a statement whose
    encode applied no symbolized map produces a hole-free term that is
    -- by hash-consing -- the very object a fresh encode under any
    other hole-avoiding sketch would build.  Encodes that raised are
    cached as ``None`` under the same guard: with no symbolized map on
    the traversal up to the failure point, a sibling sketch's encode
    fails identically.
    """

    def __init__(
        self,
        local: Dict[str, Optional[Term]],
        shared: Dict[str, Tuple[Optional[Term], frozenset]],
        blocked: frozenset,
    ) -> None:
        self._local = local
        self._shared = shared
        self._blocked = blocked

    def lookup(self, text: str, obs: Optional[Instrumentation] = None) -> object:
        if text in self._local:
            if obs is not None:
                obs.count("lift.term_cache_hits")
            return self._local[text]
        entry = self._shared.get(text)
        if entry is not None and not (entry[1] & self._blocked):
            if obs is not None:
                obs.count("lift.term_cache_hits")
            return entry[0]
        return TERM_MISS

    def tap(self, recorder) -> _SeamTap:
        return _SeamTap(recorder)

    def store(self, text: str, term: Optional[Term], tap) -> None:
        self._local[text] = term
        seams = frozenset(getattr(tap, "seams", ()))
        if not (seams & self._blocked):
            self._shared.setdefault(text, (term, seams))


class SharedCaches:
    """Every cross-job cache one worker process shares within a batch.

    One instance serves *one* (configuration, specification, options)
    triple; the farm keys instances by a batch digest and rebuilds on
    mismatch.  All methods replay their recorded transfer events into
    the per-job recorder they are handed, keeping read-sets exact.
    """

    def __init__(
        self,
        config: NetworkConfig,
        specification: Specification,
        max_path_length: Optional[int] = None,
        projection_limit: int = 4096,
        ibgp: bool = False,
    ) -> None:
        self.config = config
        self.specification = specification
        self.max_path_length = max_path_length
        self.projection_limit = projection_limit
        self.ibgp = ibgp
        self.simulations = SimulationCache()
        #: sketch key -> (full Encoding, captured transfer events)
        self._seeds: Dict[tuple, Tuple[Encoding, _CaptureRecorder]] = {}
        #: sketch keys whose full encode failed; their seeds fall back
        #: to per-call restricted encodes (identical to unshared runs).
        self._unshared: Set[tuple] = set()
        self._term_caches: Dict[tuple, Dict[str, Optional[Term]]] = {}
        #: statement text -> (term, seams its encode traversed); the
        #: cross-sketch tier of :class:`StatementTermCache`.
        self._statement_terms: Dict[str, Tuple[Optional[Term], frozenset]] = {}

    # -- seed sharing ---------------------------------------------------

    def seed_for(
        self,
        sketch: NetworkConfig,
        holes: Dict[str, Hole],
        requirement: Optional[str],
        obs: Optional[Instrumentation] = None,
        recorder=None,
    ) -> SeedSpecification:
        """The seed specification for one question, from a shared full
        encode of the sketch.

        The full encode (all requirement blocks, selection axioms) runs
        once per sketch; each requirement's seed is reassembled from
        its recorded constraint group.  Selection axioms traverse every
        candidate whatever the specification restriction, so the
        reassembled terms -- and, via hash-consing, the constraint
        object itself -- equal a fresh restricted encode's.
        """
        key = _sketch_key(holes)
        if key not in self._unshared:
            entry = self._seeds.get(key)
            if entry is None:
                capture = _CaptureRecorder()
                try:
                    encoding = Encoder(
                        sketch, self.specification, self.max_path_length, None,
                        ibgp=self.ibgp, obs=obs, recorder=capture,
                    ).encode()
                except Exception:
                    # Some *other* requirement block may be what failed;
                    # this sketch reverts to per-call restricted encodes.
                    self._unshared.add(key)
                else:
                    entry = (encoding, capture)
                    self._seeds[key] = entry
                    if obs is not None:
                        obs.count("engine.family.seed_encodes")
            else:
                if obs is not None:
                    obs.count("engine.family.seed_reuse")
            if entry is not None:
                encoding, capture = entry
                capture.replay(recorder)
                return self._assemble(encoding, holes, requirement)
        spec = (
            self.specification.restricted_to(requirement)
            if requirement is not None
            else self.specification
        )
        encoding = Encoder(
            sketch, spec, self.max_path_length, None, ibgp=self.ibgp,
            obs=obs, recorder=recorder,
        ).encode()
        return SeedSpecification(
            constraint=encoding.constraint, encoding=encoding, holes=dict(holes)
        )

    def _assemble(
        self,
        encoding: Encoding,
        holes: Dict[str, Hole],
        requirement: Optional[str],
    ) -> SeedSpecification:
        if requirement is None:
            return SeedSpecification(
                constraint=encoding.constraint,
                encoding=encoding,
                holes=dict(holes),
            )
        group = f"requirement:{requirement}"
        block_terms = encoding.groups[group]
        selection = encoding.groups["selection"]
        constraint = And(*(list(selection) + list(block_terms)))
        restricted = Encoding(
            constraint=constraint,
            groups={group: block_terms, "selection": selection},
            holes=encoding.holes,
            space=encoding.space,
            universe=encoding.universe,
            best_vars=dict(encoding.best_vars),
            filter_ok=dict(encoding.filter_ok),
            local_pref=dict(encoding.local_pref),
            link_cost=encoding.link_cost,
            ibgp=encoding.ibgp,
        )
        return SeedSpecification(
            constraint=constraint, encoding=restricted, holes=dict(holes)
        )

    # -- lift sharing ---------------------------------------------------

    def term_cache_for(self, holes: Dict[str, Hole]) -> StatementTermCache:
        """The candidate-statement term cache for one sketch.

        The sketch's symbolized route-maps are the *blocked* seams: a
        cached term is only shared across sketches when its encode
        never traversed one (otherwise the term mentions hole
        variables and is sketch-specific, so it stays in the local
        tier).
        """
        blocked = frozenset(
            (ref.router, ref.direction, ref.neighbor)
            for ref in (FieldRef.from_hole_name(name) for name in holes)
        )
        return StatementTermCache(
            self._term_caches.setdefault(_sketch_key(holes), {}),
            self._statement_terms,
            blocked,
        )
