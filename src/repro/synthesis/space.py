"""Candidate-route enumeration (the propagation graph).

NetComplete-style constraint encodings quantify over *candidate
propagation paths*: for every destination prefix, every simple path
from its originating router to every other router is a potential route
the control plane might carry.  The :class:`CandidateSpace` enumerates
and indexes these paths once; the encoder then introduces selection
variables per candidate and the explanation engine reuses the same
space for its local-statement candidates.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import ClassVar, Dict, FrozenSet, Hashable, Iterator, List, Optional, Tuple

from ..spec.semantics import violates_forbidden
from ..topology.graph import Topology
from ..topology.paths import Path, PathPattern, enumerate_simple_paths
from ..topology.prefixes import Prefix

__all__ = ["Candidate", "CandidateSpace", "EncodingError"]


class EncodingError(ValueError):
    """Raised when the synthesis problem is malformed."""


@dataclass(frozen=True)
class Candidate:
    """One candidate route: a prefix and its announcement path.

    ``path`` runs in announcement direction: origin first, holding
    router last.  The traffic path is the reversal.
    """

    prefix: Prefix
    path: Path

    @property
    def origin(self) -> str:
        return self.path.source

    @property
    def router(self) -> str:
        """The router this candidate is a route *at*."""
        return self.path.target

    def traffic_path(self) -> Path:
        return self.path.reversed()

    def key(self) -> str:
        """A stable identifier used in SMT variable names."""
        return f"{self.prefix}|{'.'.join(self.path.hops)}"

    def parent(self) -> Optional["Candidate"]:
        """The candidate one hop upstream (None at the origin)."""
        if len(self.path) == 1:
            return None
        return Candidate(self.prefix, Path(self.path.hops[:-1]))

    def __str__(self) -> str:
        return f"{self.prefix} via {self.path}"


def _structure(topology: Topology) -> Hashable:
    """Everything candidate enumeration reads from ``topology``."""
    return (
        tuple((router.name, router.asn, router.originated) for router in topology.routers),
        frozenset(link.endpoints for link in topology.links),
    )


class CandidateSpace:
    """All candidate routes of a topology, indexed for the encoder.

    Parameters
    ----------
    topology:
        The network.  Every prefix must be originated by exactly one
        router (anycast origination is rejected: the paper's language
        identifies destinations with routers).
    max_path_length:
        Optional bound on candidate path length (number of routers).
        Unbounded by default; the scaling benchmarks set it.

    Encoders obtain their space through :meth:`of`, which shares one
    space (and its memoized violation sets) between every encode of a
    structurally identical topology.
    """

    #: Spaces kept by :meth:`of`, most recently used last.
    CACHE_SIZE: ClassVar[int] = 32
    _cache: ClassVar["OrderedDict[Hashable, CandidateSpace]"] = OrderedDict()
    _cache_lock: ClassVar[threading.Lock] = threading.Lock()

    def __init__(
        self,
        topology: Topology,
        max_path_length: Optional[int] = None,
        ibgp: bool = False,
    ) -> None:
        self.topology = topology
        self.max_path_length = max_path_length
        self.ibgp = ibgp
        self._by_prefix_router: Dict[Tuple[str, str], List[Candidate]] = {}
        self._all: List[Candidate] = []
        self._origins: Dict[str, str] = {}
        self._violating: Dict[
            Tuple[PathPattern, FrozenSet[str]], FrozenSet[str]
        ] = {}
        self._enumerate()

    @classmethod
    def of(
        cls,
        topology: Topology,
        max_path_length: Optional[int] = None,
        ibgp: bool = False,
    ) -> "CandidateSpace":
        """The shared space of ``topology``.

        Spaces depend only on the topology's structure (routers, their
        ASNs and originated prefixes, and the links), so the cache is
        keyed on that structure rather than on the mutable
        :class:`Topology` object: a topology edited after its space was
        built gets a fresh space, and a cached space whose own topology
        was edited since is rebuilt.
        """
        structure = _structure(topology)
        key = (structure, max_path_length, ibgp)
        with cls._cache_lock:
            space = cls._cache.get(key)
            if space is None or _structure(space.topology) != structure:
                space = cls(topology, max_path_length, ibgp=ibgp)
                cls._cache[key] = space
            cls._cache.move_to_end(key)
            while len(cls._cache) > cls.CACHE_SIZE:
                cls._cache.popitem(last=False)
        return space

    def violating(
        self, pattern: PathPattern, managed: FrozenSet[str] = frozenset()
    ) -> FrozenSet[str]:
        """Keys of the candidates whose traffic path contains a
        ``pattern`` slice through ``managed`` (see
        :func:`~repro.spec.semantics.violates_forbidden`), memoized per
        (pattern, managed set)."""
        memo_key = (pattern, frozenset(managed))
        found = self._violating.get(memo_key)
        if found is None:
            found = frozenset(
                candidate.key()
                for candidate in self._all
                if violates_forbidden(candidate.traffic_path(), pattern, managed)
            )
            found = self._violating.setdefault(memo_key, found)
        return found

    def _enumerate(self) -> None:
        for prefix in self.topology.all_prefixes():
            origins = self.topology.origins_of(prefix)
            if len(origins) != 1:
                raise EncodingError(
                    f"prefix {prefix} must have exactly one origin, found "
                    f"{[router.name for router in origins]}"
                )
            origin = origins[0].name
            self._origins[str(prefix)] = origin
            for router in self.topology.router_names:
                candidates: List[Candidate] = []
                if router == origin:
                    candidates.append(Candidate(prefix, Path((origin,))))
                else:
                    for path in enumerate_simple_paths(
                        self.topology, origin, router, self.max_path_length
                    ):
                        if self.ibgp and not self._ibgp_valid(path):
                            continue
                        candidates.append(Candidate(prefix, path))
                candidates.sort(key=lambda c: c.path.hops)
                self._by_prefix_router[(str(prefix), router)] = candidates
                self._all.extend(candidates)

    def _ibgp_valid(self, path: Path) -> bool:
        """The full-mesh rule: a route crossing two consecutive iBGP
        sessions (three routers in one AS in a row) cannot propagate."""
        asns = [self.topology.router(hop).asn for hop in path.hops]
        for i in range(len(asns) - 2):
            if asns[i] == asns[i + 1] == asns[i + 2]:
                return False
        return True

    # ------------------------------------------------------------------

    @property
    def prefixes(self) -> Tuple[Prefix, ...]:
        return self.topology.all_prefixes()

    def origin_of(self, prefix: Prefix) -> str:
        return self._origins[str(prefix)]

    def at(self, prefix: Prefix, router: str) -> Tuple[Candidate, ...]:
        """Candidates for ``prefix`` held at ``router``."""
        return tuple(self._by_prefix_router.get((str(prefix), router), ()))

    def all(self) -> Tuple[Candidate, ...]:
        return tuple(self._all)

    def through(self, router: str) -> Iterator[Candidate]:
        """Candidates whose path visits ``router`` (any position)."""
        for candidate in self._all:
            if router in candidate.path.hops:
                yield candidate

    def __len__(self) -> int:
        return len(self._all)

    def __repr__(self) -> str:
        return (
            f"CandidateSpace(prefixes={len(self.prefixes)}, "
            f"candidates={len(self._all)})"
        )
