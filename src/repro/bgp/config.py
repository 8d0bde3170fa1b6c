"""Device and network configurations.

A :class:`RouterConfig` assigns at most one route-map per (direction,
neighbor) session; a :class:`NetworkConfig` couples a topology with one
config per router.  Configurations may contain holes (sketches) --
:meth:`NetworkConfig.holes` collects them and :meth:`NetworkConfig.fill`
instantiates them from a synthesis model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..topology.graph import Topology, TopologyError
from .routemap import RouteMap
from .sketch import Hole

__all__ = ["Direction", "RouterConfig", "NetworkConfig"]


class Direction:
    """Route-map attachment direction, relative to the owning router."""

    IN = "in"       # import policy: applied to routes received from a neighbor
    OUT = "out"     # export policy: applied to routes advertised to a neighbor

    ALL = (IN, OUT)


@dataclass
class RouterConfig:
    """BGP policy configuration of a single router."""

    router: str
    _maps: Dict[Tuple[str, str], RouteMap] = field(default_factory=dict)

    def set_map(self, direction: str, neighbor: str, routemap: RouteMap) -> None:
        if direction not in Direction.ALL:
            raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
        self._maps[(direction, neighbor)] = routemap

    def get_map(self, direction: str, neighbor: str) -> Optional[RouteMap]:
        """The attached route-map, or None (= permit everything)."""
        return self._maps.get((direction, neighbor))

    def remove_map(self, direction: str, neighbor: str) -> None:
        self._maps.pop((direction, neighbor), None)

    def sessions(self) -> Tuple[Tuple[str, str], ...]:
        """All (direction, neighbor) pairs with an attached map."""
        return tuple(sorted(self._maps))

    def holes(self) -> Iterator[Hole]:
        for key in sorted(self._maps):
            yield from self._maps[key].holes()

    def has_holes(self) -> bool:
        return any(routemap.has_holes() for routemap in self._maps.values())

    def fill(self, assignment: Mapping[str, object]) -> "RouterConfig":
        """A copy with every holey map filled; hole-free maps are
        immutable and pass through as the same objects."""
        filled = RouterConfig(self.router)
        filled._maps = {
            key: routemap.fill(assignment) for key, routemap in self._maps.items()
        }
        return filled

    def copy(self) -> "RouterConfig":
        clone = RouterConfig(self.router)
        clone._maps = dict(self._maps)
        return clone


class NetworkConfig:
    """Topology plus per-router configurations."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._configs: Dict[str, RouterConfig] = {
            name: RouterConfig(name) for name in topology.router_names
        }

    def router_config(self, router: str) -> RouterConfig:
        config = self._configs.get(router)
        if config is None:
            raise TopologyError(f"unknown router {router}")
        return config

    def set_map(self, router: str, direction: str, neighbor: str, routemap: RouteMap) -> None:
        if not self.topology.has_link(router, neighbor):
            raise TopologyError(f"no session {router} <-> {neighbor}")
        self.router_config(router).set_map(direction, neighbor, routemap)

    def get_map(self, router: str, direction: str, neighbor: str) -> Optional[RouteMap]:
        return self.router_config(router).get_map(direction, neighbor)

    # ------------------------------------------------------------------
    # Holes / sketch support
    # ------------------------------------------------------------------

    def holes(self) -> Tuple[Hole, ...]:
        collected: List[Hole] = []
        for name in self.topology.router_names:
            collected.extend(self._configs[name].holes())
        return tuple(collected)

    def holes_of(self, router: str) -> Tuple[Hole, ...]:
        return tuple(self.router_config(router).holes())

    def has_holes(self) -> bool:
        return any(config.has_holes() for config in self._configs.values())

    def fill(self, assignment: Mapping[str, object]) -> "NetworkConfig":
        """A concrete copy with every hole replaced per ``assignment``."""
        filled = NetworkConfig(self.topology)
        for name, config in self._configs.items():
            filled._configs[name] = config.fill(assignment)
        return filled

    def copy(self) -> "NetworkConfig":
        clone = NetworkConfig(self.topology)
        for name, config in self._configs.items():
            clone._configs[name] = config.copy()
        return clone

    def __repr__(self) -> str:
        attached = sum(len(c.sessions()) for c in self._configs.values())
        return f"NetworkConfig({self.topology.name!r}, attached_maps={attached})"
