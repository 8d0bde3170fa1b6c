"""BGP route announcements and community tags."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from ..topology.prefixes import Prefix

__all__ = ["Community", "Announcement", "DEFAULT_LOCAL_PREF"]

DEFAULT_LOCAL_PREF = 100


@dataclass(frozen=True, order=True)
class Community:
    """A BGP community tag ``asn:value`` (e.g. ``100:2``)."""

    asn: int
    value: int

    def __post_init__(self) -> None:
        if self.asn < 0 or self.value < 0:
            raise ValueError(f"community fields must be non-negative: {self}")

    @classmethod
    def parse(cls, text: str) -> "Community":
        try:
            asn_text, value_text = text.split(":")
            return cls(int(asn_text), int(value_text))
        except (ValueError, AttributeError):
            raise ValueError(f"invalid community {text!r}, expected 'asn:value'") from None

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"

    def to_dict(self) -> dict:
        return {"asn": self.asn, "value": self.value}

    @classmethod
    def from_dict(cls, payload: dict) -> "Community":
        return cls(int(payload["asn"]), int(payload["value"]))


@dataclass(frozen=True)
class Announcement:
    """A BGP route announcement at router granularity.

    ``path`` records the router-level propagation path from the
    originating router (first element) to the current holder (last
    element); the traffic-level forwarding path is its reversal.  Loop
    prevention rejects announcements whose path already contains the
    receiving router (the router-level analogue of AS-path loop
    detection, consistent with the paper's router-level requirements).
    """

    prefix: Prefix
    path: Tuple[str, ...]
    next_hop: str
    local_pref: int = DEFAULT_LOCAL_PREF
    med: int = 0
    communities: FrozenSet[Community] = frozenset()

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("announcement path must be non-empty")
        if len(set(self.path)) != len(self.path):
            raise ValueError(f"announcement path has a loop: {self.path}")
        if self.local_pref < 0:
            raise ValueError("local preference must be non-negative")

    @classmethod
    def originate(cls, prefix: Prefix, origin: str) -> "Announcement":
        """The announcement a router injects for its own prefix."""
        return cls(prefix=prefix, path=(origin,), next_hop=origin)

    @property
    def origin(self) -> str:
        return self.path[0]

    @property
    def holder(self) -> str:
        """The router currently holding this announcement."""
        return self.path[-1]

    @property
    def path_length(self) -> int:
        return len(self.path)

    # The builders below call the constructor directly rather than
    # ``dataclasses.replace``, which re-reads every field by name; the
    # simulator builds one announcement per hop, so this is hot.

    def extended_to(
        self, router: str, reset_local_pref: bool = True
    ) -> Optional["Announcement"]:
        """Propagate one hop to ``router``; None if that would loop.

        By default the local preference resets (it is never carried
        across eBGP sessions; import policy may then override it); in
        iBGP mode the simulator passes ``reset_local_pref=False`` for
        intra-AS sessions, where local preference *is* carried.  The
        next hop is *not* touched here: the simulator applies
        next-hop-self before the export route-map runs, so an explicit
        ``set next-hop`` in the export policy survives the hop (the
        behaviour the paper's Figure 1c configuration relies on).
        """
        if router in self.path:
            return None
        return Announcement(
            self.prefix,
            self.path + (router,),
            self.next_hop,
            DEFAULT_LOCAL_PREF if reset_local_pref else self.local_pref,
            self.med,
            self.communities,
        )

    def with_local_pref(self, local_pref: int) -> "Announcement":
        return Announcement(
            self.prefix, self.path, self.next_hop, local_pref, self.med,
            self.communities,
        )

    def with_med(self, med: int) -> "Announcement":
        return Announcement(
            self.prefix, self.path, self.next_hop, self.local_pref, med,
            self.communities,
        )

    def with_next_hop(self, next_hop: str) -> "Announcement":
        return Announcement(
            self.prefix, self.path, next_hop, self.local_pref, self.med,
            self.communities,
        )

    def with_community(self, community: Community) -> "Announcement":
        return Announcement(
            self.prefix, self.path, self.next_hop, self.local_pref, self.med,
            self.communities | {community},
        )

    def without_communities(self) -> "Announcement":
        return Announcement(
            self.prefix, self.path, self.next_hop, self.local_pref, self.med,
            frozenset(),
        )

    def traffic_path(self) -> Tuple[str, ...]:
        """Forwarding direction: holder first, origin last."""
        return tuple(reversed(self.path))

    def to_dict(self) -> dict:
        """A JSON-safe encoding; inverse of :meth:`from_dict`."""
        return {
            "prefix": str(self.prefix),
            "path": list(self.path),
            "next_hop": self.next_hop,
            "local_pref": self.local_pref,
            "med": self.med,
            "communities": [str(c) for c in sorted(self.communities)],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Announcement":
        return cls(
            prefix=Prefix(payload["prefix"]),
            path=tuple(payload["path"]),
            next_hop=payload["next_hop"],
            local_pref=int(payload["local_pref"]),
            med=int(payload["med"]),
            communities=frozenset(
                Community.parse(text) for text in payload["communities"]
            ),
        )

    def __str__(self) -> str:
        tags = ",".join(str(c) for c in sorted(self.communities)) or "-"
        return (
            f"{self.prefix} via {' -> '.join(self.path)} "
            f"[lp={self.local_pref} med={self.med} comm={tags}]"
        )
