"""Route-maps: the policy unit the paper symbolizes and explains.

The model follows Cisco-style BGP route-maps as used by NetComplete
(paper Figure 1c): an ordered list of lines, each with

* a ``permit``/``deny`` action,
* one match clause (``match <attribute> <value>``), and
* zero or more set clauses (``set <attribute> <value>``).

The first matching line decides; a route-map with no matching line
*denies* (Cisco's implicit deny).  An *absent* route-map permits
everything unchanged.

Every field -- the line action, the match attribute/value and each set
attribute/value -- may be a concrete value or a :class:`~repro.bgp.sketch.Hole`,
which is how both synthesis sketches (unknowns to fill) and
explanation symbolization (paper Figure 6b: ``match Var_Attr Var_Val /
Var_Action Var_Param``) are represented.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Optional, Tuple

from ..topology.prefixes import Prefix
from .announcement import Announcement, Community
from .sketch import FieldValue, Hole, concrete_value, is_hole

__all__ = [
    "MatchAttribute",
    "SetAttribute",
    "PERMIT",
    "DENY",
    "SetClause",
    "RouteMapLine",
    "RouteMap",
]

PERMIT = "permit"
DENY = "deny"


class MatchAttribute:
    """Attributes a line can match on."""

    ANY = "any"
    DST_PREFIX = "dst-prefix"
    COMMUNITY = "community"
    NEXT_HOP = "next-hop"

    ALL = (ANY, DST_PREFIX, COMMUNITY, NEXT_HOP)


class SetAttribute:
    """Attributes a set clause can modify."""

    LOCAL_PREF = "local-pref"
    COMMUNITY = "community"
    NEXT_HOP = "next-hop"
    MED = "med"

    ALL = (LOCAL_PREF, COMMUNITY, NEXT_HOP, MED)


@dataclass(frozen=True)
class SetClause:
    """One ``set <attribute> <value>`` clause."""

    attribute: FieldValue[str]
    value: FieldValue[object]

    def holes(self) -> Iterator[Hole]:
        if is_hole(self.attribute):
            yield self.attribute  # type: ignore[misc]
        if is_hole(self.value):
            yield self.value  # type: ignore[misc]

    def fill(self, assignment: Mapping[str, object]) -> "SetClause":
        return SetClause(
            _fill(self.attribute, assignment),
            _fill(self.value, assignment),
        )

    def apply(self, announcement: Announcement) -> Announcement:
        """Apply the clause.  Incoherent attribute/value combinations
        (e.g. ``set local-pref 100:2``) are no-ops, mirroring the
        symbolic semantics where a sketch's ``Var_Param`` may range
        over values of several kinds (paper Figure 6b)."""
        attribute = concrete_value(self.attribute, "set attribute")
        value = concrete_value(self.value, "set value")
        if attribute == SetAttribute.LOCAL_PREF:
            parsed = _coerce_int(value)
            return announcement if parsed is None else announcement.with_local_pref(parsed)
        if attribute == SetAttribute.COMMUNITY:
            community = _coerce_community(value)
            return announcement if community is None else announcement.with_community(community)
        if attribute == SetAttribute.NEXT_HOP:
            return announcement.with_next_hop(str(value))
        if attribute == SetAttribute.MED:
            parsed = _coerce_int(value)
            return announcement if parsed is None else announcement.with_med(parsed)
        raise ValueError(f"unknown set attribute {attribute!r}")

    def __str__(self) -> str:
        return f"set {self.attribute} {self.value}"


@dataclass(frozen=True)
class RouteMapLine:
    """One route-map entry.

    ``match_value`` is ignored (and conventionally ``None``) when
    ``match_attr`` is :data:`MatchAttribute.ANY`.
    """

    seq: int
    action: FieldValue[str] = PERMIT
    match_attr: FieldValue[str] = MatchAttribute.ANY
    match_value: FieldValue[object] = None
    sets: Tuple[SetClause, ...] = ()
    #: Whether any field is a hole.  The line is immutable, so this is
    #: decided once, at construction; fills and hole checks read it.
    _holey: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError("line sequence number must be non-negative")
        if not is_hole(self.action) and self.action not in (PERMIT, DENY):
            raise ValueError(f"line {self.seq}: action must be permit/deny, got {self.action!r}")
        if not is_hole(self.match_attr) and self.match_attr not in MatchAttribute.ALL:
            raise ValueError(f"line {self.seq}: unknown match attribute {self.match_attr!r}")
        object.__setattr__(self, "_holey", next(self.holes(), None) is not None)

    # ------------------------------------------------------------------
    # Holes
    # ------------------------------------------------------------------

    def holes(self) -> Iterator[Hole]:
        for candidate in (self.action, self.match_attr, self.match_value):
            if is_hole(candidate):
                yield candidate  # type: ignore[misc]
        for clause in self.sets:
            yield from clause.holes()

    def has_holes(self) -> bool:
        return self._holey

    def fill(self, assignment: Mapping[str, object]) -> "RouteMapLine":
        """This line with its holes filled; a hole-free line is
        immutable, so it is returned as is."""
        if not self._holey:
            return self
        return RouteMapLine(
            seq=self.seq,
            action=_fill(self.action, assignment),
            match_attr=_fill(self.match_attr, assignment),
            match_value=_fill(self.match_value, assignment),
            sets=tuple(clause.fill(assignment) for clause in self.sets),
        )

    # ------------------------------------------------------------------
    # Concrete semantics
    # ------------------------------------------------------------------

    def matches(self, announcement: Announcement) -> bool:
        """First-match predicate.  Incoherent attribute/value pairs --
        possible when a symbolized ``Var_Val`` ranges over values of
        several kinds (paper Figure 6b) -- simply do not match,
        mirroring the symbolic semantics."""
        attribute = concrete_value(self.match_attr, f"line {self.seq} match attribute")
        if attribute == MatchAttribute.ANY:
            return True
        value = concrete_value(self.match_value, f"line {self.seq} match value")
        if attribute == MatchAttribute.DST_PREFIX:
            target = _coerce_prefix(value)
            if target is None:
                return False
            return announcement.prefix == target or announcement.prefix.is_subnet_of(target)
        if attribute == MatchAttribute.COMMUNITY:
            community = _coerce_community(value)
            if community is None:
                return False
            return community in announcement.communities
        if attribute == MatchAttribute.NEXT_HOP:
            return announcement.next_hop == str(value)
        raise ValueError(f"unknown match attribute {attribute!r}")

    def apply(self, announcement: Announcement) -> Optional[Announcement]:
        """Apply this (matching) line; None means the route is denied."""
        action = concrete_value(self.action, f"line {self.seq} action")
        if action == DENY:
            return None
        result = announcement
        for clause in self.sets:
            result = clause.apply(result)
        return result

    def __str__(self) -> str:
        parts = [f"{self.action} {self.seq}"]
        if is_hole(self.match_attr) or self.match_attr != MatchAttribute.ANY:
            parts.append(f"match {self.match_attr} {self.match_value}")
        parts.extend(str(clause) for clause in self.sets)
        return "; ".join(parts)


@dataclass(frozen=True)
class RouteMap:
    """An ordered route-map.  Lines are kept sorted by sequence number."""

    name: str
    lines: Tuple[RouteMapLine, ...] = ()
    #: Whether any line holds a hole, decided once at construction.
    _holey: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("route-map name must be non-empty")
        ordered = tuple(sorted(self.lines, key=lambda line: line.seq))
        seqs = [line.seq for line in ordered]
        if len(set(seqs)) != len(seqs):
            raise ValueError(f"route-map {self.name}: duplicate sequence numbers {seqs}")
        object.__setattr__(self, "lines", ordered)
        object.__setattr__(self, "_holey", any(line._holey for line in ordered))

    @classmethod
    def permit_all(cls, name: str) -> "RouteMap":
        return cls(name, (RouteMapLine(seq=10, action=PERMIT),))

    @classmethod
    def deny_all(cls, name: str) -> "RouteMap":
        return cls(name, (RouteMapLine(seq=10, action=DENY),))

    # ------------------------------------------------------------------

    def holes(self) -> Iterator[Hole]:
        for line in self.lines:
            yield from line.holes()

    def has_holes(self) -> bool:
        return self._holey

    def fill(self, assignment: Mapping[str, object]) -> "RouteMap":
        """This map with its holes filled; a hole-free map is returned
        as is, and only its holey lines are rebuilt."""
        if not self._holey:
            return self
        return RouteMap(self.name, tuple(line.fill(assignment) for line in self.lines))

    def with_line(self, line: RouteMapLine) -> "RouteMap":
        return RouteMap(self.name, self.lines + (line,))

    def replace_line(self, seq: int, line: RouteMapLine) -> "RouteMap":
        if line.seq != seq:
            raise ValueError("replacement line must keep the sequence number")
        kept = tuple(l for l in self.lines if l.seq != seq)
        if len(kept) == len(self.lines):
            raise ValueError(f"route-map {self.name}: no line with seq {seq}")
        return RouteMap(self.name, kept + (line,))

    def line(self, seq: int) -> RouteMapLine:
        for candidate in self.lines:
            if candidate.seq == seq:
                return candidate
        raise ValueError(f"route-map {self.name}: no line with seq {seq}")

    # ------------------------------------------------------------------
    # Concrete semantics
    # ------------------------------------------------------------------

    def apply(self, announcement: Announcement) -> Optional[Announcement]:
        """First-match semantics with implicit deny."""
        for line in self.lines:
            if line.matches(announcement):
                return line.apply(announcement)
        return None

    def __str__(self) -> str:
        body = "; ".join(str(line) for line in self.lines)
        return f"route-map {self.name} [{body}]"


def _coerce_int(value: object) -> Optional[int]:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, str) and value.lstrip("-").isdigit():
        return int(value)
    return None


def _coerce_prefix(value: object) -> Optional[Prefix]:
    if isinstance(value, Prefix):
        return value
    if isinstance(value, str):
        from ..topology.prefixes import PrefixError

        try:
            return Prefix(value)
        except PrefixError:
            return None
    return None


def _coerce_community(value: object) -> Optional[Community]:
    if isinstance(value, Community):
        return value
    if isinstance(value, str):
        try:
            return Community.parse(value)
        except ValueError:
            return None
    return None


def _fill(value: FieldValue[object], assignment: Mapping[str, object]) -> object:
    if isinstance(value, Hole):
        if value.name not in assignment:
            raise KeyError(f"no value for hole {value.name}")
        filled = assignment[value.name]
        if all(str(filled) != str(v) for v in value.domain):
            raise ValueError(f"value {filled!r} outside domain of hole {value.name}")
        # Return the canonical domain object (assignments may carry the
        # stringified form used by the SMT enum sort).
        for candidate in value.domain:
            if str(candidate) == str(filled):
                return candidate
    return value
