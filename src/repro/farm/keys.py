"""Content-addressed job keys.

A job's key is the SHA-256 digest of a canonical-JSON payload covering
everything the answer depends on *through the job's own inputs*: the
topology, the specification text, the device's rendered configuration,
the symbolized hole domains, and the engine options.  Deliberately
absent is the rest of the network's configuration -- that dependency is
captured dynamically by the recorded read-set
(:mod:`repro.farm.readset`) and validated by replay at lookup time, so
an edit to an unrelated router never changes a job's key (and therefore
never evicts its cached answer).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..bgp.config import NetworkConfig
from ..bgp.render import render_router
from ..bgp.sketch import Hole
from ..spec.ast import Specification
from ..spec.printer import format_specification
from ..topology.graph import Topology

__all__ = ["FarmOptions", "canonical_json", "digest", "job_key", "KEY_SCHEMA"]

#: Bumped whenever the key payload shape changes, so stale cache
#: entries from older code can never be served.
KEY_SCHEMA = "repro-farm-key/1"


def _mapping(value: object) -> dict:
    """``json.dumps`` fallback: any read-only mapping (a stored answer
    carried as text) encodes as the dict it stands for."""
    if isinstance(value, Mapping):
        return dict(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, pure ASCII."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
        default=_mapping,
    )


def digest(payload: object) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


@dataclass(frozen=True)
class FarmOptions:
    """Engine options a batch run is keyed (and constructed) with.

    The farm deliberately exposes only the picklable subset of the
    engine's knobs: ``link_cost`` callables and custom rewrite-rule
    sets cannot cross a process boundary, so batch runs always use the
    default rule set and no hot-potato costs.

    ``audit``/``audit_seed`` switch on the adversarial audit stage
    (:mod:`repro.audit`).  They are deliberately *excluded* from
    :meth:`payload` -- and therefore from job keys, shared-cache keys
    and journal signatures of non-audit runs -- because auditing is
    observational: it never changes an answer, so flipping it on must
    neither evict cached explanations nor re-key a batch.  The audit
    artifact itself is content-addressed separately (see
    :meth:`audit_payload` and ``repro.farm.worker.audit_artifact_key``).
    """

    fields: Tuple[str, ...] = ("action",)
    projection_limit: int = 4096
    max_path_length: Optional[int] = None
    ibgp: bool = False
    audit: bool = False
    audit_seed: int = 0

    def payload(self) -> Dict[str, object]:
        return {
            "fields": list(self.fields),
            "projection_limit": self.projection_limit,
            "max_path_length": self.max_path_length,
            "ibgp": self.ibgp,
        }

    def audit_payload(self) -> Dict[str, object]:
        """The audit knobs, for signatures of audit-enabled runs."""
        return {"audit": self.audit, "audit_seed": self.audit_seed}


def topology_payload(topology: Topology) -> Dict[str, object]:
    """A canonical description of the topology."""
    return {
        "name": topology.name,
        "routers": [
            {
                "name": router.name,
                "asn": router.asn,
                "originated": [str(prefix) for prefix in router.originated],
                "role": router.role,
            }
            for router in sorted(topology.routers, key=lambda r: r.name)
        ],
        "links": sorted(sorted((link.a, link.b)) for link in topology.links),
    }


def spec_payload(specification: Specification) -> Dict[str, object]:
    return {
        "text": format_specification(specification),
        "managed": sorted(specification.managed),
    }


def holes_payload(holes: Dict[str, Hole]) -> list:
    """Hole names and stringified domains, in name order."""
    return [
        [name, [str(value) for value in holes[name].domain]]
        for name in sorted(holes)
    ]


def job_key(
    config: NetworkConfig,
    specification: Specification,
    job,
    options: FarmOptions,
    holes: Optional[Dict[str, Hole]] = None,
) -> str:
    """The content-addressed cache key for ``job`` under ``config``.

    ``holes`` may be passed when the caller has already symbolized the
    job (the worker does), avoiding a second symbolization.
    """
    if holes is None:
        _, holes = job.symbolize(config)
    payload = {
        "schema": KEY_SCHEMA,
        "topology": topology_payload(config.topology),
        "spec": spec_payload(specification),
        "job": job.payload(),
        "own_config": render_router(config.router_config(job.device)),
        "holes": holes_payload(holes),
        "options": options.payload(),
    }
    return digest(payload)
