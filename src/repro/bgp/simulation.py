"""Deterministic BGP control-plane simulation.

This is the concrete counterpart of the symbolic encoder: it
propagates announcements over the topology under the configured
route-maps until a fixpoint, applying the decision process at every
router.  The verifier uses the resulting :class:`RoutingOutcome` to
check global path requirements, and a property-based test cross-checks
the simulator against the symbolic encoding on fully concrete
configurations.

Semantics (synchronous path-vector):

* Every router permanently selects its own originated prefixes.
* Each round, every router advertises its current best route per
  prefix to every neighbor, through its export map; the neighbor runs
  its import map, then selects the best among everything received in
  that round (plus its own originations).
* Rounds repeat until no router changes its selection.  Policy-induced
  oscillation (BGP "bad gadgets") is detected by a round bound and
  reported as :class:`ConvergenceError`.

Evaluation is delta-driven.  The export -> hop -> import transfer over
a session is a pure function of the speaker's current best route, so a
round only re-runs the transfers of ``(speaker, prefix)`` pairs whose
best changed in the previous round (every pair in round 1); every
other session's arrival is the one it delivered before.  Arrivals are
kept as one entry per ``(session, prefix)``; only the ``(router,
prefix)`` keys whose arrivals changed rebuild their adj-RIB-in and
re-run selection, and the fixpoint is the first round in which no
adj-RIB-in changed.  This is the whole-table synchronous loop
computed incrementally, not an asynchronous approximation: the RIB,
the candidates and their order, the round count, the round bound, the
per-round governor checkpoint and the ``simulate.rounds`` /
``simulate.messages`` counters (live arrivals per round) are those of
re-advertising everything every round.  A test-only copy of that loop
(``tests/bgp/reference_simulation.py``) is checked against this one
on every case-study sketch fill.

Transfers are also remembered across runs.  A :class:`TransferMemo`
keeps, per ``(speaker, neighbor)`` session, the export and import map
*objects* it saw and the arrival each ``(best announcement, iBGP
flag)`` produced through them, plus the topology's originations.  A
caller that simulates many fills of one sketch (the audit oracle, one
memo per world) passes the same memo to every run: hole-free maps come
out of ``fill`` as the same objects, so only the sessions whose maps a
fill replaced re-run their transfers.  Without a memo, each run uses a
fresh one.  The ranked ``candidates`` table is built from the
converged adj-RIB-in on first access, since nothing on the production
path reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs import Instrumentation
from ..runtime import Governor, ReproError
from ..topology.graph import Topology
from ..topology.paths import Path
from ..topology.prefixes import Prefix
from .announcement import Announcement
from .config import Direction, NetworkConfig
from .decision import LinkCost, rank, select_best
from .routemap import RouteMap

__all__ = ["RoutingOutcome", "ConvergenceError", "TransferMemo", "simulate"]


class ConvergenceError(ReproError, RuntimeError):
    """The control plane failed to reach a fixpoint.

    Part of the structured :class:`~repro.runtime.ReproError` taxonomy
    (oscillation is a bounded, reportable outcome, not a hang); it also
    remains a ``RuntimeError`` for backward compatibility.
    """


#: A memo miss (``None`` is a remembered denial).
_UNSEEN: Any = object()

#: The converged adj-RIB-in's routes per (router, prefix str), in
#: session slot order.
Received = Dict[Tuple[str, str], Tuple[Announcement, ...]]
#: One session's memoized transfers: (best announcement, iBGP flag) to
#: the arrival, ``None`` when denied or looped.
Transfers = Dict[Tuple[Announcement, bool], Optional[Announcement]]


@dataclass
class RoutingOutcome:
    """The converged control-plane state.

    ``rib`` maps ``(router, prefix str)`` to the selected best
    announcement; the verifier, the explanation pipeline and the audit
    oracle read only this.  ``candidates`` ranks, best first, every
    route that survived import filtering (the adj-RIB-in) plus the
    router's own originations.  It is for diagnostics and tests, so a
    simulated outcome keeps the adj-RIB-in's routes, builds the table
    from them on first access and then drops them.
    """

    topology: Topology
    rib: Dict[Tuple[str, str], Announcement] = field(default_factory=dict)
    rounds: int = 0
    #: (adj-RIB-in routes, link cost) that ``candidates`` is built from.
    _pending: Optional[Tuple[Received, Optional[LinkCost]]] = field(
        default=None, repr=False, compare=False
    )
    _candidates: Optional[Dict[Tuple[str, str], Tuple[Announcement, ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def candidates(self) -> Dict[Tuple[str, str], Tuple[Announcement, ...]]:
        if self._candidates is None:
            pending, self._pending = self._pending, None
            self._candidates = (
                _ranked_candidates(self.topology, *pending) if pending is not None else {}
            )
        return self._candidates

    def best(self, router: str, prefix: Prefix) -> Optional[Announcement]:
        return self.rib.get((router, str(prefix)))

    def candidates_at(self, router: str, prefix: Prefix) -> Tuple[Announcement, ...]:
        return self.candidates.get((router, str(prefix)), ())

    def forwarding_path(self, router: str, prefix: Prefix) -> Optional[Path]:
        """The traffic path from ``router`` toward ``prefix``."""
        best = self.best(router, prefix)
        if best is None:
            return None
        return Path(best.traffic_path())

    def reachable(self, router: str, prefix: Prefix) -> bool:
        return self.best(router, prefix) is not None

    def selected_paths(self) -> Tuple[Tuple[str, str, Path], ...]:
        """All (router, prefix, traffic path) triples, sorted."""
        rows = []
        for (router, prefix_text), announcement in sorted(self.rib.items()):
            rows.append((router, prefix_text, Path(announcement.traffic_path())))
        return tuple(rows)

    def summary(self) -> str:
        lines = [f"routing outcome after {self.rounds} rounds:"]
        for router, prefix_text, path in self.selected_paths():
            lines.append(f"  {router} -> {prefix_text}: {path}")
        return "\n".join(lines)


class TransferMemo:
    """Session transfers remembered across simulations of one network.

    ``sessions`` maps each ``(speaker, neighbor)`` session to the export
    and import map objects its transfers were computed through and its
    :data:`Transfers`.  Maps are compared with ``is``: a
    filled holey map is a new object on every fill, so it replaces its
    session's entry, and an entry keeps its maps alive, so their
    identities cannot be reused.  It also holds the topology's own
    facts: the originations (``own``), each router's ASN and the order
    of a whole-table round's RIB (router by router, prefix by prefix).
    The memo belongs to the topology object and ``ibgp`` setting it was
    first used with, and starts over when a run passes others.
    """

    __slots__ = ("topology", "ibgp", "own", "asn_of", "rib_order", "sessions")

    def __init__(self) -> None:
        self.topology: Optional[Topology] = None
        self.ibgp = False
        self.own: Dict[Tuple[str, str], Announcement] = {}
        self.asn_of: Dict[str, int] = {}
        self.rib_order: List[Tuple[str, str]] = []
        self.sessions: Dict[
            Tuple[str, str], Tuple[Optional[RouteMap], Optional[RouteMap], Transfers]
        ] = {}

    def bind(self, topology: Topology, ibgp: bool) -> None:
        """Start over unless the memo was built for this topology
        object and ``ibgp`` setting."""
        if self.topology is topology and self.ibgp == ibgp:
            return
        self.topology = topology
        self.ibgp = ibgp
        routers = topology.routers
        self.own = {
            (router.name, str(prefix)): Announcement.originate(prefix, router.name)
            for router in routers
            for prefix in router.originated
        }
        self.asn_of = {router.name: router.asn for router in routers}
        texts = [str(prefix) for prefix in topology.all_prefixes()]
        self.rib_order = [(router.name, text) for router in routers for text in texts]
        self.sessions = {}


def simulate(
    config: NetworkConfig,
    max_rounds: Optional[int] = None,
    link_cost: Optional[LinkCost] = None,
    ibgp: bool = False,
    governor: Optional[Governor] = None,
    obs: Optional[Instrumentation] = None,
    recorder=None,
    memo: Optional[TransferMemo] = None,
) -> RoutingOutcome:
    """Run the control plane to convergence.

    ``link_cost`` enables hot-potato routing: ties after MED are broken
    by the IGP cost to the advertising neighbor (pass
    ``WeightConfig.concrete_weight``).

    ``recorder`` observes every route-map transfer (duck-typed
    ``concrete(owner, direction, neighbor, announcement, result)``),
    including identity transfers through absent maps, so callers can
    capture exactly which policy each simulation run read.  Each
    distinct transfer is reported at least once; a transfer the run
    already made is not re-run, so it is not reported again.

    ``memo`` carries session transfers from earlier runs (see
    :class:`TransferMemo`); a transfer it already holds is not re-run.
    It cannot be combined with a ``recorder``, which must see every
    distinct transfer of its own run.

    A ``governor`` is checkpointed once per simulation round (stage
    ``"simulate"``, budget kind ``"rounds"``), so deadlines and budgets
    bound even pathological policies before the round bound trips.

    ``ibgp=True`` enables AS-aware semantics for sessions between
    routers with the same ASN: routes learned over iBGP are not
    re-advertised to other iBGP peers (the full-mesh rule), and local
    preference is carried across iBGP sessions instead of resetting.

    Raises
    ------
    ValueError
        If the configuration still contains holes, or both ``memo``
        and ``recorder`` are given.
    ConvergenceError
        If selections oscillate beyond the round bound.
    """
    if config.has_holes():
        raise ValueError("cannot simulate a sketch; fill all holes first")
    if memo is None:
        memo = TransferMemo()
    elif recorder is not None:
        raise ValueError("a transfer memo cannot be combined with a recorder")
    topology = config.topology
    memo.bind(topology, ibgp)
    bound = max_rounds if max_rounds is not None else 2 * max(4, len(topology)) + 4
    asn_of = memo.asn_of

    # Loop invariants: every session's transfer context, grouped by
    # speaker.  ``slot`` numbers a neighbor's incoming sessions in
    # session order, which is the order the neighbor's adj-RIB-in
    # receives them; ``results`` is the session's memo entry for its
    # current maps.
    outgoing_sessions: Dict[
        str, List[Tuple[str, Optional[RouteMap], Optional[RouteMap], bool, int, Transfers]]
    ] = {}
    incoming_slots: Dict[str, int] = {}
    sessions = memo.sessions
    router_config = config.router_config
    for session in topology.sessions():
        speaker, neighbor = session
        export_map = router_config(speaker).get_map(Direction.OUT, neighbor)
        import_map = router_config(neighbor).get_map(Direction.IN, speaker)
        entry = sessions.get(session)
        if entry is None or entry[0] is not export_map or entry[1] is not import_map:
            entry = sessions[session] = (export_map, import_map, {})
        slot = incoming_slots.get(neighbor, 0)
        incoming_slots[neighbor] = slot + 1
        outgoing_sessions.setdefault(speaker, []).append(
            (
                neighbor,
                export_map,
                import_map,
                ibgp and asn_of[speaker] == asn_of[neighbor],
                slot,
                entry[2],
            )
        )

    # The router's own announcement per originated (router, prefix str).
    own = memo.own
    # Current best per (router, prefix str).
    rib: Dict[Tuple[str, str], Announcement] = dict(own)
    # The adj-RIB-in per (router, prefix str), keyed by path.
    adj_in: Dict[Tuple[str, str], Dict[Tuple[str, ...], Announcement]] = {}
    # What arrived over each session last round: per (neighbor, prefix
    # str), one entry per incoming session slot (None = nothing).
    arrivals: Dict[Tuple[str, str], List[Optional[Announcement]]] = {}
    live = 0  # non-None arrival entries = messages per round
    changed_bests: List[Tuple[str, str]] = list(rib)

    for round_index in range(1, bound + 1):
        if governor is not None:
            governor.checkpoint("simulate")
        if obs is not None:
            obs.count("simulate.rounds")
        # Re-advertise only the bests that changed last round: every
        # other session's arrival is what it was, because a transfer
        # depends on nothing but the speaker's best route.
        touched: Dict[Tuple[str, str], None] = {}
        for key in changed_bests:
            speaker, text = key
            best = rib.get(key)
            outgoing: Optional[Announcement] = None
            for neighbor, export_map, import_map, session_is_ibgp, slot, results in (
                outgoing_sessions.get(speaker, ())
            ):
                arrived: Optional[Announcement] = None
                if best is not None and not (
                    # Full-mesh rule: iBGP-learned routes are not
                    # re-advertised over iBGP.
                    session_is_ibgp
                    and len(best.path) >= 2
                    and asn_of[best.path[-2]] == asn_of[speaker]
                ):
                    transfer = (best, session_is_ibgp)
                    arrived = results.get(transfer, _UNSEEN)
                    if arrived is _UNSEEN:
                        arrived = None
                        # Next-hop-self, then export policy (which may
                        # override the next hop), then the hop itself.
                        if outgoing is None:
                            outgoing = best.with_next_hop(speaker)
                        exported = (
                            export_map.apply(outgoing)
                            if export_map is not None
                            else outgoing
                        )
                        if recorder is not None:
                            recorder.concrete(
                                speaker, Direction.OUT, neighbor, outgoing, exported
                            )
                        if exported is not None:
                            # None here is loop prevention.
                            arrived = exported.extended_to(
                                neighbor, reset_local_pref=not session_is_ibgp
                            )
                            if arrived is not None:
                                imported = (
                                    import_map.apply(arrived)
                                    if import_map is not None
                                    else arrived
                                )
                                if recorder is not None:
                                    recorder.concrete(
                                        neighbor, Direction.IN, speaker, arrived, imported
                                    )
                                arrived = imported
                        results[transfer] = arrived
                target = (neighbor, text)
                entries = arrivals.get(target)
                if entries is None:
                    entries = arrivals[target] = [None] * incoming_slots[neighbor]
                previous = entries[slot]
                # Identity and None first: an announcement's ``!=`` is
                # a Python-level call.
                if arrived is not previous and (
                    arrived is None or previous is None or arrived != previous
                ):
                    entries[slot] = arrived
                    live += (arrived is not None) - (previous is not None)
                    touched[target] = None
        if obs is not None and live:
            obs.count("simulate.messages", live)

        # Rebuild the adj-RIB-in and re-select only where an arrival
        # changed; announcements are withdrawn implicitly by not being
        # re-advertised.
        changed_bests = []
        converged = True
        for key in touched:
            table: Dict[Tuple[str, ...], Announcement] = {}
            for announcement in arrivals[key]:
                if announcement is not None:
                    table[announcement.path] = announcement
            if table == adj_in.get(key, {}):
                continue
            converged = False
            if table:
                adj_in[key] = table
            else:
                del adj_in[key]
            origination = own.get(key)
            pool = [origination] if origination is not None else []
            pool.extend(table.values())
            best = pool[0] if len(pool) == 1 else select_best(pool, link_cost)
            current = rib.get(key)
            if best is not current and (
                best is None or current is None or best != current
            ):
                if best is None:
                    del rib[key]
                else:
                    rib[key] = best
                changed_bests.append(key)

        if converged:
            if round_index > 1:
                # The delta loop updated the RIB in place; restore a
                # whole-table round's order.  A fixpoint in round 1
                # keeps the originations' order, which no selection
                # has touched.
                rib = {key: rib[key] for key in memo.rib_order if key in rib}
            received = {key: tuple(table.values()) for key, table in adj_in.items()}
            return RoutingOutcome(
                topology, rib=rib, rounds=round_index, _pending=(received, link_cost)
            )

    raise ConvergenceError(
        f"control plane did not converge within {bound} rounds; "
        "the policy likely contains a preference cycle"
    )


def _ranked_candidates(
    topology: Topology, received: Received, link_cost: Optional[LinkCost]
) -> Dict[Tuple[str, str], Tuple[Announcement, ...]]:
    """The ranked candidate tables, in the dict order of a whole-table
    round.

    A whole-table round adds an adj-RIB-in key when its first
    announcement arrives, by session, then prefix; originations
    follow, router by router.  Each table is filled in session slot
    order, so its first entry came over the key's first live session,
    whose speaker is that entry's advertiser.
    """
    session_index = {session: index for index, session in enumerate(topology.sessions())}
    position = {str(prefix): index for index, prefix in enumerate(topology.all_prefixes())}

    def first_arrival(key: Tuple[str, str]) -> Tuple[int, int]:
        first = received[key][0]
        return session_index[(first.path[-2], key[0])], position[key[1]]

    candidates = {
        key: tuple(rank(received[key], link_cost))
        for key in sorted(received, key=first_arrival)
    }
    for router in topology.routers:
        for prefix in router.originated:
            key = (router.name, str(prefix))
            own = Announcement.originate(prefix, router.name)
            existing = candidates.get(key, ())
            candidates[key] = tuple(rank(list(existing) + [own], link_cost))
    return candidates
