"""Test-only reference: the whole-table synchronous round loop.

This is the simulator's original round loop, kept verbatim so the
delta-driven :func:`repro.bgp.simulation.simulate` can be checked
against it (``test_simulation_differential.py``).  Every round it
re-advertises every router's best route over every session, rebuilds
the whole adj-RIB-in, re-selects every ``(router, prefix)`` and
detects the fixpoint by comparing whole tables.  It is deliberately
not importable from ``src/``: production code has exactly one
simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bgp.announcement import Announcement
from repro.bgp.config import Direction, NetworkConfig
from repro.bgp.decision import LinkCost, rank, select_best
from repro.bgp.simulation import ConvergenceError, RoutingOutcome
from repro.obs import Instrumentation
from repro.runtime import Governor

__all__ = ["reference_simulate"]


def reference_simulate(
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
    capture exactly which policy each simulation run read.

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
    prefixes = topology.all_prefixes()
    bound = max_rounds if max_rounds is not None else 2 * max(4, len(topology)) + 4

    # Current best per (router, prefix str).
    rib: Dict[Tuple[str, str], Announcement] = {}
    for router in topology.routers:
        for prefix in router.originated:
            rib[(router.name, str(prefix))] = Announcement.originate(prefix, router.name)

    adj_in: Dict[Tuple[str, str], Dict[Tuple[str, ...], Announcement]] = {}

    for round_index in range(1, bound + 1):
        if governor is not None:
            governor.checkpoint("simulate")
        if obs is not None:
            obs.count("simulate.rounds")
        # Advertise from a snapshot of the current RIB.
        inbox: Dict[Tuple[str, str], List[Announcement]] = {}
        asn_of = {router.name: router.asn for router in topology.routers}
        for speaker, neighbor in topology.sessions():
            export_map = config.get_map(speaker, Direction.OUT, neighbor)
            import_map = config.get_map(neighbor, Direction.IN, speaker)
            session_is_ibgp = ibgp and asn_of[speaker] == asn_of[neighbor]
            for prefix in prefixes:
                best = rib.get((speaker, str(prefix)))
                if best is None:
                    continue
                if session_is_ibgp and len(best.path) >= 2:
                    learned_from = best.path[-2]
                    if asn_of[learned_from] == asn_of[speaker]:
                        # Full-mesh rule: iBGP-learned routes are not
                        # re-advertised over iBGP.
                        continue
                # Next-hop-self, then export policy (which may override
                # the next hop), then the hop itself.
                outgoing = best.with_next_hop(speaker)
                exported = (
                    export_map.apply(outgoing) if export_map is not None else outgoing
                )
                if recorder is not None:
                    recorder.concrete(
                        speaker, Direction.OUT, neighbor, outgoing, exported
                    )
                if exported is None:
                    continue
                arrived = exported.extended_to(
                    neighbor, reset_local_pref=not session_is_ibgp
                )
                if arrived is None:
                    continue  # loop prevention
                imported = (
                    import_map.apply(arrived) if import_map is not None else arrived
                )
                if recorder is not None:
                    recorder.concrete(
                        neighbor, Direction.IN, speaker, arrived, imported
                    )
                if imported is None:
                    continue
                arrived = imported
                inbox.setdefault((neighbor, str(prefix)), []).append(arrived)
                if obs is not None:
                    obs.count("simulate.messages")

        # Update adj-RIB-in: announcements are withdrawn implicitly by
        # not being re-advertised, so each round rebuilds the table.
        new_adj: Dict[Tuple[str, str], Dict[Tuple[str, ...], Announcement]] = {}
        for key, received in inbox.items():
            table = new_adj.setdefault(key, {})
            for announcement in received:
                table[announcement.path] = announcement

        # Selection.
        new_rib: Dict[Tuple[str, str], Announcement] = {}
        for router in topology.routers:
            for prefix in prefixes:
                key = (router.name, str(prefix))
                pool: List[Announcement] = []
                if prefix in router.originated:
                    pool.append(Announcement.originate(prefix, router.name))
                pool.extend(new_adj.get(key, {}).values())
                best = select_best(pool, link_cost)
                if best is not None:
                    new_rib[key] = best

        if new_rib == rib and new_adj == adj_in:
            outcome = RoutingOutcome(topology, rib=rib, rounds=round_index)
            for key, table in adj_in.items():
                outcome.candidates[key] = tuple(rank(list(table.values()), link_cost))
            for router in topology.routers:
                for prefix in router.originated:
                    key = (router.name, str(prefix))
                    own = Announcement.originate(prefix, router.name)
                    existing = outcome.candidates.get(key, ())
                    outcome.candidates[key] = tuple(
                        rank(list(existing) + [own], link_cost)
                    )
            return outcome
        rib = new_rib
        adj_in = new_adj

    raise ConvergenceError(
        f"control plane did not converge within {bound} rounds; "
        "the policy likely contains a preference cycle"
    )
