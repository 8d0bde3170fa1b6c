"""Versioned round-trip serialization of explanations.

Everything an :class:`~repro.explain.engine.Explanation` *reports* --
seed and simplified constraints, the projected acceptable region with
its evaluation environments, the lifted statements, the final
subspecification, status, timings -- round-trips through plain dicts
(and therefore JSON).  Two things intentionally do not:

* ``SeedSpecification.encoding`` -- the synthesizer's full encoding
  (candidate space, per-group terms, hole registry) is recomputation
  state, not explanation content; restored seeds carry
  ``encoding=None``.
* in-flight objects (governors, instrumentation) -- never part of the
  explanation.

The schema is versioned (:data:`SCHEMA`); loaders reject payloads with
a different schema tag instead of guessing, which lets the persistent
artifact store treat them as plain cache misses.

Terms are encoded with :mod:`repro.smt.serialize` (shared-structure
DAG tables), statements through the specification printer/parser pair
(:mod:`repro.explain.certificate` stores statements the same way, as
printed text the audit oracle re-parses and re-encodes), and domain
values (prefixes, communities) as tagged scalars.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bgp.announcement import Community
from ..bgp.sketch import Hole
from ..smt import RewriteStats
from ..smt.serialize import SerializationError, term_from_payload, term_to_payload
from ..spec.parser import parse_statement
from ..spec.printer import format_statement
from ..topology.prefixes import Prefix
from .engine import Explanation, ExplanationStatus
from .lift import LiftResult
from .project import ProjectedSpec
from .seed import SeedSpecification
from .simplifier import SimplifiedSeed
from .subspec import Subspecification

__all__ = [
    "SCHEMA",
    "explanation_to_dict",
    "explanation_from_dict",
    "value_to_payload",
    "value_from_payload",
]

#: Schema tag stamped into every serialized explanation.
SCHEMA = "repro-explanation/1"


# ----------------------------------------------------------------------
# Domain values (hole domains and assignments)
# ----------------------------------------------------------------------

def value_to_payload(value: object) -> object:
    """Encode a hole-domain value as a JSON-safe tagged scalar.

    Booleans, integers and strings pass through; prefixes and
    communities become ``{"$": <tag>, "v": <str>}`` so the loader can
    restore the original type (plain dicts never occur as values).
    """
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return value
    if isinstance(value, Prefix):
        return {"$": "prefix", "v": str(value)}
    if isinstance(value, Community):
        return {"$": "community", "v": str(value)}
    raise SerializationError(f"unsupported domain value {value!r}")


def value_from_payload(payload: object) -> object:
    if isinstance(payload, dict):
        tag = payload.get("$")
        if tag == "prefix":
            return Prefix(str(payload["v"]))
        if tag == "community":
            return Community.parse(str(payload["v"]))
        raise SerializationError(f"unknown value tag in {payload!r}")
    if isinstance(payload, (bool, int, str)):
        return payload
    raise SerializationError(f"unsupported value payload {payload!r}")


def _hole_to_payload(hole: Hole) -> dict:
    return {
        "name": hole.name,
        "domain": [value_to_payload(value) for value in hole.domain],
    }


def _hole_from_payload(payload: dict) -> Hole:
    return Hole(
        str(payload["name"]),
        tuple(value_from_payload(value) for value in payload["domain"]),
    )


def _holes_to_payload(holes: Dict[str, Hole]) -> List[dict]:
    return [_hole_to_payload(holes[name]) for name in sorted(holes)]


def _holes_from_payload(payload: List[dict]) -> Dict[str, Hole]:
    holes = [_hole_from_payload(entry) for entry in payload]
    return {hole.name: hole for hole in holes}


def _assignment_to_payload(assignment: Dict[str, object]) -> dict:
    return {name: value_to_payload(value) for name, value in assignment.items()}


def _assignment_from_payload(payload: dict) -> Dict[str, object]:
    return {name: value_from_payload(value) for name, value in payload.items()}


# ----------------------------------------------------------------------
# Per-stage artifacts
# ----------------------------------------------------------------------

def seed_to_dict(seed: SeedSpecification) -> dict:
    return {
        "constraint": term_to_payload(seed.constraint),
        "holes": _holes_to_payload(seed.holes),
    }


def seed_from_dict(payload: dict) -> SeedSpecification:
    return SeedSpecification(
        constraint=term_from_payload(payload["constraint"]),
        encoding=None,
        holes=_holes_from_payload(payload["holes"]),
    )


def simplified_to_dict(simplified: SimplifiedSeed) -> dict:
    return {
        "term": term_to_payload(simplified.term),
        "stats": {
            "applications": dict(simplified.stats.applications),
            "input_size": simplified.stats.input_size,
            "output_size": simplified.stats.output_size,
            "passes": simplified.stats.passes,
        },
        "input_constraints": simplified.input_constraints,
        "output_constraints": simplified.output_constraints,
    }


def simplified_from_dict(payload: dict) -> SimplifiedSeed:
    stats_payload = payload["stats"]
    return SimplifiedSeed(
        term=term_from_payload(payload["term"]),
        stats=RewriteStats(
            applications={
                str(name): int(count)
                for name, count in stats_payload["applications"].items()
            },
            input_size=int(stats_payload["input_size"]),
            output_size=int(stats_payload["output_size"]),
            passes=int(stats_payload["passes"]),
        ),
        input_constraints=int(payload["input_constraints"]),
        output_constraints=int(payload["output_constraints"]),
    )


def projected_to_dict(projected: ProjectedSpec) -> dict:
    return {
        "holes": _holes_to_payload(projected.holes),
        "acceptable": [
            _assignment_to_payload(assignment) for assignment in projected.acceptable
        ],
        "rejected": [
            _assignment_to_payload(assignment) for assignment in projected.rejected
        ],
        "term": term_to_payload(projected.term),
        # env values are hole values (int or str) plus boolean ``best``
        # valuations -- all JSON scalars already.
        "envs": [
            [[list(pair) for pair in key], dict(env)]
            for key, env in sorted(projected.envs.items())
        ],
    }


def projected_from_dict(payload: dict) -> ProjectedSpec:
    envs: Dict[Tuple[Tuple[str, str], ...], Dict[str, object]] = {}
    for key_payload, env in payload["envs"]:
        key = tuple((str(name), str(value)) for name, value in key_payload)
        envs[key] = dict(env)
    return ProjectedSpec(
        holes=_holes_from_payload(payload["holes"]),
        acceptable=tuple(
            _assignment_from_payload(entry) for entry in payload["acceptable"]
        ),
        rejected=tuple(
            _assignment_from_payload(entry) for entry in payload["rejected"]
        ),
        term=term_from_payload(payload["term"]),
        envs=envs,
    )


def lift_result_to_dict(result: LiftResult) -> dict:
    return {
        "statements": [format_statement(s) for s in result.statements],
        "lifted": result.lifted,
        "candidates_tried": result.candidates_tried,
        "equivalents": [format_statement(s) for s in result.equivalents],
        "exhausted": result.exhausted,
    }


def lift_result_from_dict(payload: dict) -> LiftResult:
    return LiftResult(
        statements=tuple(parse_statement(text) for text in payload["statements"]),
        lifted=bool(payload["lifted"]),
        candidates_tried=int(payload["candidates_tried"]),
        equivalents=tuple(parse_statement(text) for text in payload["equivalents"]),
        exhausted=bool(payload["exhausted"]),
    )


def subspec_to_dict(subspec: Subspecification) -> dict:
    return {
        "device": subspec.device,
        "requirement": subspec.requirement,
        "statements": [format_statement(s) for s in subspec.statements],
        "lifted": subspec.lifted,
        "low_level": term_to_payload(subspec.low_level),
        "variables": list(subspec.variables),
    }


def subspec_from_dict(payload: dict) -> Subspecification:
    return Subspecification(
        device=str(payload["device"]),
        requirement=str(payload["requirement"]),
        statements=tuple(parse_statement(text) for text in payload["statements"]),
        lifted=bool(payload["lifted"]),
        low_level=term_from_payload(payload["low_level"]),
        variables=tuple(payload["variables"]),
    )


# ----------------------------------------------------------------------
# The whole explanation
# ----------------------------------------------------------------------

def explanation_to_dict(explanation: Explanation) -> dict:
    """Encode an explanation as a JSON-safe dict (schema-stamped).

    Each stage artifact is encoded here and only here: the farm stores
    this dict as the one copy of an answer.
    """

    def stage(artifact, encode) -> Optional[dict]:
        return encode(artifact) if artifact is not None else None

    return {
        "schema": SCHEMA,
        "device": explanation.device,
        "requirement": explanation.requirement,
        "status": explanation.status.value,
        "degradation": explanation.degradation,
        "timings": dict(explanation.timings),
        "seed": stage(explanation.seed, seed_to_dict),
        "simplified": stage(explanation.simplified, simplified_to_dict),
        "projected": stage(explanation.projected, projected_to_dict),
        "lift": stage(explanation.lift_result, lift_result_to_dict),
        "subspec": subspec_to_dict(explanation.subspec),
    }


def explanation_from_dict(payload: dict) -> Explanation:
    """Inverse of :func:`explanation_to_dict`.

    Raises :class:`~repro.smt.serialize.SerializationError` on a
    schema mismatch (stores treat that as a miss, not an error).
    """
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise SerializationError(
            f"expected schema {SCHEMA!r}, got {payload.get('schema') if isinstance(payload, dict) else payload!r}"
        )
    return Explanation(
        device=str(payload["device"]),
        requirement=str(payload["requirement"]),
        seed=seed_from_dict(payload["seed"]) if payload["seed"] is not None else None,
        simplified=(
            simplified_from_dict(payload["simplified"])
            if payload["simplified"] is not None
            else None
        ),
        projected=(
            projected_from_dict(payload["projected"])
            if payload["projected"] is not None
            else None
        ),
        lift_result=(
            lift_result_from_dict(payload["lift"])
            if payload["lift"] is not None
            else None
        ),
        subspec=subspec_from_dict(payload["subspec"]),
        timings=dict(payload["timings"]),
        status=ExplanationStatus(payload["status"]),
        degradation=payload["degradation"],
    )
