"""Explanation certificates: exportable, independently checkable.

The paper's goal is *trust*: an operator should not have to believe
the explanation engine any more than the synthesizer.  A certificate
makes that concrete -- it packages an explanation's claims as plain
data (JSON-serializable), and :func:`audit` hands them to the one
independent explanation checker, :class:`repro.audit.Oracle`, which
never consults the engine's seed, projection or lifting stages:

1. every assignment the certificate accepts keeps the requirement
   satisfied in the concrete simulation of the filled network;
2. every assignment it rejects violates the requirement there;
3. the claimed subspecification statements hold on every accepted
   assignment (each re-encoded by the oracle).

A certificate that passes the audit can be archived with the change
ticket; re-auditing later detects drift between the explanation and
the deployed configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bgp.config import NetworkConfig
from ..smt import TRUE
from ..spec.ast import Specification
from ..spec.parser import parse_statement
from ..spec.printer import format_statement
from .engine import Explanation
from .subspec import Subspecification
from .symbolize import FieldRef, symbolize

__all__ = ["Certificate", "AuditResult", "make_certificate", "audit"]


@dataclass(frozen=True)
class Certificate:
    """A self-contained record of one explanation's claims."""

    device: str
    requirement: str
    variables: Tuple[str, ...]
    domains: Dict[str, Tuple[str, ...]]
    acceptable: Tuple[Tuple[Tuple[str, str], ...], ...]   # sorted (name, value) pairs
    statements: Tuple[str, ...]
    lifted: bool

    def to_json(self) -> str:
        payload = {
            "device": self.device,
            "requirement": self.requirement,
            "variables": list(self.variables),
            "domains": {k: list(v) for k, v in self.domains.items()},
            "acceptable": [
                [[name, value] for name, value in assignment]
                for assignment in self.acceptable
            ],
            "statements": list(self.statements),
            "lifted": self.lifted,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        payload = json.loads(text)
        return cls(
            device=payload["device"],
            requirement=payload["requirement"],
            variables=tuple(payload["variables"]),
            domains={k: tuple(v) for k, v in payload["domains"].items()},
            acceptable=tuple(
                tuple((name, value) for name, value in assignment)
                for assignment in payload["acceptable"]
            ),
            statements=tuple(payload["statements"]),
            lifted=payload["lifted"],
        )


@dataclass
class AuditResult:
    """Outcome of independently re-checking a certificate.

    ``seed`` records the sampling seed the audit ran under (``None``
    for the exhaustive legacy mode), so a verdict can be reproduced
    bit-for-bit from its summary line alone.
    """

    valid: bool
    problems: List[str] = field(default_factory=list)
    seed: Optional[int] = None

    def summary(self) -> str:
        verdict = "VALID" if self.valid else "INVALID"
        line = f"certificate audit: {verdict}"
        if self.seed is not None:
            line += f" (seed {self.seed})"
        if self.valid:
            return line
        lines = [line]
        lines.extend(f"  {problem}" for problem in self.problems)
        return "\n".join(lines)


def make_certificate(explanation: Explanation) -> Certificate:
    """Package an explanation as a certificate."""
    holes = explanation.projected.holes
    acceptable = tuple(
        tuple(sorted((name, str(value)) for name, value in assignment.items()))
        for assignment in explanation.projected.acceptable
    )
    return Certificate(
        device=explanation.device,
        requirement=explanation.requirement,
        variables=tuple(sorted(holes)),
        domains={name: tuple(str(v) for v in hole.domain) for name, hole in holes.items()},
        acceptable=acceptable,
        statements=tuple(format_statement(s) for s in explanation.lift_result.statements),
        lifted=explanation.subspec.lifted,
    )


def audit(
    certificate: Certificate,
    config: NetworkConfig,
    specification: Specification,
    targets: List[FieldRef],
    max_path_length: Optional[int] = None,
    seed: Optional[int] = None,
    sample: int = 16,
) -> AuditResult:
    """Re-check every claim of ``certificate`` with the audit oracle.

    ``targets`` must re-identify the symbolized fields (their hole
    names must match the certificate's variables).  ``Oracle.truth``
    over the whole hole space decides the acceptable region, which is
    compared with the claimed one; lifted statements are checked with
    ``Oracle.claim`` on the truth-accepted assignments.

    With an explicit ``seed``, the statement re-check runs over a
    deterministic sample of at most ``sample`` converged assignments
    (drawn by ``random.Random(seed)`` over their sorted keys, so the
    same seed always checks the same assignments); without one it
    stays exhaustive.
    """
    import math
    import random

    from ..audit.oracle import Oracle
    from ..audit.suite import generate_suite

    result = AuditResult(valid=True, seed=seed)

    sketch, holes = symbolize(config, targets)
    if tuple(sorted(holes)) != certificate.variables:
        result.valid = False
        result.problems.append(
            f"symbolized variables {sorted(holes)} do not match the "
            f"certificate's {list(certificate.variables)}"
        )
        return result

    requirement = certificate.requirement
    oracle = Oracle(
        sketch, specification, holes,
        requirement=None if requirement == "<all>" else requirement,
        max_path_length=max_path_length,
    )
    space = math.prod(len(hole.domain) for hole in holes.values())
    recomputed = set()
    converged = []
    for case in generate_suite(holes, max_exhaustive=space).cases:
        accepted, env = oracle.truth(case)
        if accepted:
            recomputed.add(case.key)
        if env is not None:
            converged.append((case.key, case, env))
    claimed = set(certificate.acceptable)
    if recomputed != claimed:
        result.valid = False
        missing = claimed - recomputed
        extra = recomputed - claimed
        if missing:
            result.problems.append(
                f"{len(missing)} claimed-acceptable assignment(s) are rejected "
                "on re-check"
            )
        if extra:
            result.problems.append(
                f"{len(extra)} assignment(s) are acceptable on re-check but "
                "missing from the certificate"
            )

    if certificate.lifted and certificate.statements:
        converged.sort(key=lambda entry: entry[0])
        if seed is not None and len(converged) > sample:
            picks = random.Random(seed).sample(range(len(converged)), sample)
            converged = [converged[index] for index in sorted(picks)]
        for text in certificate.statements:
            statement = parse_statement(text)
            claim = Subspecification(
                certificate.device, requirement, (statement,), lifted=True, low_level=TRUE
            )
            for key, case, env in converged:
                if key not in recomputed:
                    continue
                verdict = oracle.claim(claim, case, env)
                if not verdict:
                    result.valid = False
                    result.problems.append(
                        f"statement {statement} cannot be re-encoded"
                        if verdict is None
                        else f"statement {statement} fails on accepted "
                        f"assignment {key}"
                    )
                    break
    return result
