"""Recording the rest-of-network slice an explanation actually reads.

A job's content-addressed key covers its *own* inputs; its dependency
on every other router's policy is dynamic -- the pipeline reads other
configurations only by pushing routes through their route-maps.  Those
transfers happen at exactly two seams:

* the **symbolic** seam -- :meth:`Encoder._state_of` applies a
  neighbor's export/import map to a :class:`SymbolicRoute` via
  :func:`apply_routemap_symbolic`;
* the **concrete** seam -- :func:`repro.bgp.simulation.simulate`
  applies export/import maps to concrete :class:`Announcement`\\ s.

:class:`TransferRecorder` taps both seams (the engine threads it
through), capturing ``(owner, direction, neighbor, input) -> output``
fingerprints for every transfer owned by *another* router -- including
identity transfers through absent maps and denials, so adding or
removing a map is visible.  The pipeline repeats the same transfers
many times, so the recorder dedups on the transfer's *value*
(hash-consed terms, frozen announcements) before it serializes
anything, and builds each distinct entry -- input payload, input
digest, output fingerprint -- at most once.

The read-set is stored as two artifacts next to the cached answer:

* the **head** (stage :data:`READSET_STAGE`): schema, device, attribute
  universe and the rendered text of every touched route-map -- all a
  warm hit needs when nothing it read was edited;
* the **entries** (stage :data:`ENTRIES_STAGE`): the recorded
  transfers, which :mod:`repro.farm.invalidate` loads and replays
  against an edited configuration only when some touched map's text
  changed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..bgp.announcement import Announcement, Community
from ..bgp.config import NetworkConfig
from ..bgp.render import render_routemap
from ..explain.family import route_key, transfer_key
from ..smt import Term
from ..smt.serialize import term_from_payload, term_to_payload
from ..synthesis.symexec import AttributeUniverse, SymbolicRoute
from ..topology.prefixes import Prefix
from .keys import digest

__all__ = [
    "ENTRIES_STAGE",
    "READSET_SCHEMA",
    "READSET_STAGE",
    "TransferRecorder",
    "symbolic_route_to_payload",
    "symbolic_route_from_payload",
    "universe_payload",
]

READSET_SCHEMA = "repro-farm-readset/2"

#: Store stages of the two read-set artifacts: the head, and the
#: recorded transfers (loaded only for a replay).
READSET_STAGE = "readset"
ENTRIES_STAGE = "readset-entries"

SYMBOLIC = "symbolic"
CONCRETE = "concrete"


def symbolic_route_to_payload(
    route: SymbolicRoute, encode: Callable[[Term], object] = term_to_payload
) -> Dict[str, object]:
    """A self-contained JSON encoding of a symbolic attribute state.

    ``encode`` encodes one term; a recorder passes a memoized
    :func:`term_to_payload`."""
    return {
        "prefix": str(route.prefix),
        "local_pref": encode(route.local_pref),
        "med": encode(route.med),
        "next_hop": encode(route.next_hop),
        "communities": [
            [str(community), encode(route.communities[community])]
            for community in sorted(route.communities, key=str)
        ],
    }


def symbolic_route_from_payload(payload: Dict[str, object]) -> SymbolicRoute:
    return SymbolicRoute(
        prefix=Prefix(str(payload["prefix"])),
        local_pref=term_from_payload(payload["local_pref"]),
        med=term_from_payload(payload["med"]),
        next_hop=term_from_payload(payload["next_hop"]),
        communities={
            Community.parse(str(text)): term_from_payload(term)
            for text, term in payload["communities"]  # type: ignore[union-attr]
        },
    )


def universe_payload(universe: AttributeUniverse) -> Dict[str, object]:
    """The attribute vocabulary a symbolic replay must agree on."""
    return {
        "communities": [str(c) for c in universe.communities],
        "next_hops": list(universe.next_hop_sort.values),
    }


def symbolic_output_fingerprint(
    permit, state: SymbolicRoute,
    encode: Callable[[Term], object] = term_to_payload,
) -> str:
    return digest(
        {"permit": encode(permit), "state": symbolic_route_to_payload(state, encode)}
    )


def concrete_output_fingerprint(result: Optional[Announcement]) -> Optional[str]:
    if result is None:
        return None  # an explicit denial is itself an observation
    return digest(result.to_dict())


class TransferRecorder:
    """Observes every route-map transfer of one explanation question.

    Transfers owned by ``device`` itself are skipped: the device's own
    configuration is part of the static key (and its maps carry the
    question's holes).  The pipeline pushes the same routes through
    the same maps many times (per candidate assignment, per simulation
    round), and one record per distinct input suffices for replay, so
    a transfer whose value key (:func:`~repro.explain.family.transfer_key`)
    was already seen is dropped before anything is serialized; the
    first-seen output wins.

    ``memo`` holds what recording builds, keyed by value: each term's
    payload, each input's payload and digest, and each output
    fingerprint.  Sibling recorders of one family share it (the farm
    creates one per family), so a transfer the siblings all observe is
    serialized and digested once; what it holds is shared between
    entries and never mutated.  Entries are kept under ``(seam, owner,
    direction, neighbor, input digest)``, which is also their order in
    the stored payload.
    """

    def __init__(self, device: str, memo: Optional[dict] = None) -> None:
        self.device = device
        self._memo: dict = {} if memo is None else memo
        #: transfer value keys already recorded
        self._seen: Set[tuple] = set()
        #: (seam, owner, direction, neighbor, input digest) -> entry dict
        self._entries: Dict[Tuple[str, str, str, str, str], Dict[str, object]] = {}

    # -- value memos ---------------------------------------------------

    def _term(self, term: Term) -> object:
        key = ("term", term)
        payload = self._memo.get(key)
        if payload is None:
            payload = self._memo[key] = term_to_payload(term)
        return payload

    def _route(self, value: tuple, route: SymbolicRoute) -> Tuple[dict, str]:
        """The payload and digest of a symbolic input (``value`` is its
        :func:`~repro.explain.family.route_key`)."""
        key = (SYMBOLIC, value)
        built = self._memo.get(key)
        if built is None:
            payload = symbolic_route_to_payload(route, self._term)
            built = self._memo[key] = (payload, digest(payload))
        return built

    def _output(self, permit: Term, state: SymbolicRoute) -> str:
        """The fingerprint of a symbolic transfer's output."""
        key = ("output", permit, route_key(state))
        fingerprint = self._memo.get(key)
        if fingerprint is None:
            fingerprint = self._memo[key] = symbolic_output_fingerprint(
                permit, state, self._term
            )
        return fingerprint

    def _announcement(self, announcement: Announcement) -> Tuple[dict, str]:
        """The payload and digest of a concrete announcement -- its
        digest is also its fingerprint as a transfer output."""
        key = (CONCRETE, announcement)
        built = self._memo.get(key)
        if built is None:
            payload = announcement.to_dict()
            built = self._memo[key] = (payload, digest(payload))
        return built

    # -- the two seams -------------------------------------------------

    def symbolic(
        self,
        owner: str,
        direction: str,
        neighbor: str,
        state_in: SymbolicRoute,
        permit,
        state_out: SymbolicRoute,
    ) -> None:
        """One symbolic transfer through ``owner``'s map (may be absent)."""
        if owner == self.device:
            return
        key = transfer_key(SYMBOLIC, owner, direction, neighbor, state_in)
        if key in self._seen:
            return
        self._seen.add(key)
        input_payload, input_digest = self._route(key[4], state_in)
        self._entries.setdefault(
            (SYMBOLIC, owner, direction, neighbor, input_digest),
            {
                "seam": SYMBOLIC,
                "owner": owner,
                "direction": direction,
                "neighbor": neighbor,
                "input": input_payload,
                "output": self._output(permit, state_out),
            },
        )

    def concrete(
        self,
        owner: str,
        direction: str,
        neighbor: str,
        announcement: Announcement,
        result: Optional[Announcement],
    ) -> None:
        """One concrete transfer through ``owner``'s map (may be absent)."""
        if owner == self.device:
            return
        key = transfer_key(CONCRETE, owner, direction, neighbor, announcement)
        if key in self._seen:
            return
        self._seen.add(key)
        input_payload, input_digest = self._announcement(announcement)
        self._entries.setdefault(
            (CONCRETE, owner, direction, neighbor, input_digest),
            {
                "seam": CONCRETE,
                "owner": owner,
                "direction": direction,
                "neighbor": neighbor,
                "input": input_payload,
                # an explicit denial is itself an observation
                "output": (
                    None if result is None else self._announcement(result)[1]
                ),
            },
        )

    # -- export --------------------------------------------------------

    def seams(self) -> List[Tuple[str, str, str]]:
        """Every (owner, direction, neighbor) triple touched."""
        return sorted({key[1:4] for key in self._entries})

    def payload(
        self, config: NetworkConfig, universe: AttributeUniverse
    ) -> Tuple[Dict[str, object], Dict[str, object]]:
        """The read-set as ``(head, entries)``, the two documents to
        store next to the answer (stages :data:`READSET_STAGE` and
        :data:`ENTRIES_STAGE`).

        ``config`` must be the configuration the recording ran against:
        each touched seam's route-map is snapshotted in the head as
        rendered text, giving validation a fast textually-unchanged
        path that never loads the entries.
        """
        maps = []
        for owner, direction, neighbor in self.seams():
            routemap = config.get_map(owner, direction, neighbor)
            maps.append(
                [
                    owner,
                    direction,
                    neighbor,
                    render_routemap(routemap) if routemap is not None else None,
                ]
            )
        head = {
            "schema": READSET_SCHEMA,
            "device": self.device,
            "universe": universe_payload(universe),
            "maps": maps,
        }
        entries = {"entries": [self._entries[key] for key in sorted(self._entries)]}
        return head, entries

    def __len__(self) -> int:
        return len(self._entries)
