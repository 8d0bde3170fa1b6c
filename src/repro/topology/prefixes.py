"""IPv4 prefix handling.

A thin immutable wrapper over :mod:`ipaddress` with the operations the
route-map machinery needs (parsing, containment, overlap and
canonical string form).  Wrapping the standard library keeps parsing
battle-tested while giving prefixes value semantics and a stable sort
order for deterministic encodings.
"""

from __future__ import annotations

import ipaddress
from functools import total_ordering
from typing import Union

__all__ = ["Prefix", "PrefixError"]


class PrefixError(ValueError):
    """Raised for malformed prefixes."""


@total_ordering
class Prefix:
    """An IPv4 prefix in CIDR notation.

    >>> p = Prefix("10.0.0.0/8")
    >>> Prefix("10.1.0.0/16").is_subnet_of(p)
    True
    """

    # ``_text`` caches the canonical CIDR string: prefixes are keyed by
    # their text throughout (RIB keys, candidate keys, SMT names).
    # ``_hash`` caches ``hash(self._network)`` -- the same value, so set
    # and dict orders do not move -- because announcements, and every
    # memo keyed on them, hash their prefix on each lookup, and
    # ``IPv4Network.__hash__`` is Python code.
    __slots__ = ("_network", "_text", "_hash")

    def __init__(self, text: Union[str, "Prefix", ipaddress.IPv4Network]) -> None:
        if isinstance(text, Prefix):
            self._network = text._network
            self._text = text._text
            self._hash = text._hash
            return
        if isinstance(text, ipaddress.IPv4Network):
            self._network = text
        else:
            try:
                self._network = ipaddress.IPv4Network(text, strict=True)
            except (ipaddress.AddressValueError, ipaddress.NetmaskValueError, ValueError) as exc:
                raise PrefixError(f"invalid prefix {text!r}: {exc}") from None
        self._text = str(self._network)
        self._hash = hash(self._network)

    @property
    def network_address(self) -> str:
        return str(self._network.network_address)

    @property
    def length(self) -> int:
        return self._network.prefixlen

    def is_subnet_of(self, other: "Prefix") -> bool:
        return self._network.subnet_of(other._network)

    def is_supernet_of(self, other: "Prefix") -> bool:
        return self._network.supernet_of(other._network)

    def overlaps(self, other: "Prefix") -> bool:
        return self._network.overlaps(other._network)

    def contains_address(self, address: str) -> bool:
        try:
            return ipaddress.IPv4Address(address) in self._network
        except ipaddress.AddressValueError as exc:
            raise PrefixError(f"invalid address {address!r}: {exc}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self._network == other._network

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (int(self._network.network_address), self.length) < (
            int(other._network.network_address),
            other.length,
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Prefix({self._text!r})"
