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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..obs import Instrumentation
from ..runtime import Governor, ReproError
from ..topology.graph import Topology
from ..topology.paths import Path
from ..topology.prefixes import Prefix
from .announcement import Announcement
from .config import Direction, NetworkConfig
from .decision import LinkCost, rank, select_best
from .routemap import RouteMap

__all__ = ["RoutingOutcome", "ConvergenceError", "simulate"]


class ConvergenceError(ReproError, RuntimeError):
    """The control plane failed to reach a fixpoint.

    Part of the structured :class:`~repro.runtime.ReproError` taxonomy
    (oscillation is a bounded, reportable outcome, not a hang); it also
    remains a ``RuntimeError`` for backward compatibility.
    """


@dataclass
class RoutingOutcome:
    """The converged control-plane state.

    ``rib`` maps ``(router, prefix str)`` to the selected best
    announcement; ``candidates`` additionally records every route that
    survived import filtering (the adj-RIB-in), which the verifier and
    the explanation reports use to show *why* a route was or was not
    chosen.
    """

    topology: Topology
    rib: Dict[Tuple[str, str], Announcement] = field(default_factory=dict)
    candidates: Dict[Tuple[str, str], Tuple[Announcement, ...]] = field(default_factory=dict)
    rounds: int = 0

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


def simulate(
    config: NetworkConfig,
    max_rounds: Optional[int] = None,
    link_cost: Optional[LinkCost] = None,
    ibgp: bool = False,
    governor: Optional[Governor] = None,
    obs: Optional[Instrumentation] = None,
    recorder=None,
) -> RoutingOutcome:
    """Run the control plane to convergence.

    ``link_cost`` enables hot-potato routing: ties after MED are broken
    by the IGP cost to the advertising neighbor (pass
    ``WeightConfig.concrete_weight``).

    ``recorder`` observes every route-map transfer (duck-typed
    ``concrete(owner, direction, neighbor, announcement, result)``),
    including identity transfers through absent maps, so callers can
    capture exactly which policy each simulation run read.  Each
    distinct transfer is reported at least once; a transfer whose input
    did not change since an earlier round is not re-run, so it is not
    reported again.

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
        If the configuration still contains holes.
    ConvergenceError
        If selections oscillate beyond the round bound.
    """
    if config.has_holes():
        raise ValueError("cannot simulate a sketch; fill all holes first")
    topology = config.topology
    routers = topology.routers
    prefixes = topology.all_prefixes()
    texts = [str(prefix) for prefix in prefixes]
    bound = max_rounds if max_rounds is not None else 2 * max(4, len(topology)) + 4
    asn_of = {router.name: router.asn for router in routers}

    # Loop invariants: every session's transfer context, grouped by
    # speaker.  ``slot`` numbers a neighbor's incoming sessions in
    # session order, which is the order the neighbor's adj-RIB-in
    # receives them.
    outgoing_sessions: Dict[
        str, List[Tuple[str, Optional[RouteMap], Optional[RouteMap], bool, int]]
    ] = {}
    incoming_order: Dict[str, List[int]] = {}
    for index, (speaker, neighbor) in enumerate(topology.sessions()):
        slots = incoming_order.setdefault(neighbor, [])
        outgoing_sessions.setdefault(speaker, []).append(
            (
                neighbor,
                config.get_map(speaker, Direction.OUT, neighbor),
                config.get_map(neighbor, Direction.IN, speaker),
                ibgp and asn_of[speaker] == asn_of[neighbor],
                len(slots),
            )
        )
        slots.append(index)

    # The router's own announcement per originated (router, prefix str).
    own: Dict[Tuple[str, str], Announcement] = {}
    for router in routers:
        for prefix in router.originated:
            own[(router.name, str(prefix))] = Announcement.originate(prefix, router.name)

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
            for neighbor, export_map, import_map, session_is_ibgp, slot in (
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
                    # Next-hop-self, then export policy (which may
                    # override the next hop), then the hop itself.
                    if outgoing is None:
                        outgoing = best.with_next_hop(speaker)
                    exported = (
                        export_map.apply(outgoing) if export_map is not None else outgoing
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
                target = (neighbor, text)
                entries = arrivals.get(target)
                if entries is None:
                    entries = arrivals[target] = [None] * len(incoming_order[neighbor])
                previous = entries[slot]
                if arrived != previous:
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
            best = select_best(pool, link_cost)
            if best != rib.get(key):
                if best is None:
                    del rib[key]
                else:
                    rib[key] = best
                changed_bests.append(key)

        if converged:
            return _outcome(
                topology, rib, adj_in, arrivals, incoming_order, texts,
                round_index, link_cost,
            )

    raise ConvergenceError(
        f"control plane did not converge within {bound} rounds; "
        "the policy likely contains a preference cycle"
    )


def _outcome(
    topology: Topology,
    rib: Dict[Tuple[str, str], Announcement],
    adj_in: Dict[Tuple[str, str], Dict[Tuple[str, ...], Announcement]],
    arrivals: Mapping[Tuple[str, str], List[Optional[Announcement]]],
    incoming_order: Mapping[str, List[int]],
    texts: List[str],
    rounds: int,
    link_cost: Optional[LinkCost],
) -> RoutingOutcome:
    """The converged state, in the dict order of a whole-table round.

    A whole-table round builds the RIB router by router, prefix by
    prefix, and the adj-RIB-in in the order announcements first arrive
    (by session, then prefix); the delta loop updates both in place, so
    the order is restored here.  A fixpoint in round 1 keeps the
    originations' order, which no selection has touched.
    """
    if rounds > 1:
        rib = {
            key: rib[key]
            for key in (
                (router.name, text) for router in topology.routers for text in texts
            )
            if key in rib
        }
    position = {text: index for index, text in enumerate(texts)}

    def first_arrival(key: Tuple[str, str]) -> Tuple[int, int]:
        order = incoming_order[key[0]]
        slot = next(
            slot for slot, entry in enumerate(arrivals[key]) if entry is not None
        )
        return order[slot], position[key[1]]

    outcome = RoutingOutcome(topology, rib=rib, rounds=rounds)
    for key in sorted(adj_in, key=first_arrival):
        outcome.candidates[key] = tuple(rank(list(adj_in[key].values()), link_cost))
    for router in topology.routers:
        for prefix in router.originated:
            key = (router.name, str(prefix))
            own = Announcement.originate(prefix, router.name)
            existing = outcome.candidates.get(key, ())
            outcome.candidates[key] = tuple(rank(list(existing) + [own], link_cost))
    return outcome
