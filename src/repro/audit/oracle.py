"""The audit oracle: ground truth independent of the lifting pipeline.

For every probe the oracle recomputes, from scratch, both sides of the
agreement check:

* **truth** -- fill the symbolized sketch with the probe's assignment,
  run the concrete control-plane simulation, and evaluate the global
  requirement terms of a *fresh* synthesizer encoding under the
  simulated selection.  The encoding holds the requirement terms only:
  the simulation, not the selection axioms, decides every selection
  variable, so the axioms are never built.  This never touches the
  engine's cached seed, projection or lift artifacts, so a bug anywhere
  in that pipeline cannot leak into the verdict it is being judged by.
* **claim** -- what the subspecification under audit says about the
  assignment: the conjunction of its lifted statements (each re-encoded
  here with the synthesizer encoder, not the lifting stage's cached
  terms), or its low-level constraint when it was not lifted.

Environment-mutation probes get their own fresh encoding of the
mutated network, so truth and claim are always evaluated against the
same world.  Each world also owns a :class:`~repro.bgp.simulation.TransferMemo`:
every probe fills the same sketch, so the session transfers a probe's
holes do not reach are computed once per world.  The memo dies with
the oracle; nothing is shared with the lifting pipeline or across jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..bgp.config import NetworkConfig
from ..bgp.simulation import ConvergenceError, TransferMemo, simulate
from ..bgp.sketch import Hole
from ..explain.subspec import Subspecification
from ..runtime import Governor, ReproError
from ..smt import And, Term
from ..spec.ast import RequirementBlock, Specification, Statement
from ..synthesis.encoder import Encoder, Encoding
from .suite import AuditCase, renumber_routemaps

__all__ = ["Oracle"]


@dataclass
class _Variant:
    """One world the oracle evaluates in: a (possibly mutated) sketch
    plus its fresh requirements-only encoding and ground requirement
    term."""

    sketch: NetworkConfig
    encoding: Encoding
    requirement: Term
    #: ``encoding.selection_lookups()``, computed once per world.
    best_lookups: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...]
    #: Session transfers shared by this world's probe simulations.
    memo: TransferMemo = field(default_factory=TransferMemo)


class Oracle:
    """Recomputes truth and claim verdicts for audit probes.

    ``sketch``/``holes`` are the job's own symbolization (the claim is
    about exactly these variables); ``specification`` is the *full*
    specification, restricted here to ``requirement`` just as the
    engine restricts it -- but through a fresh encoding, never the
    engine's artifacts.
    """

    def __init__(
        self,
        sketch: NetworkConfig,
        specification: Specification,
        holes: Mapping[str, Hole],
        requirement: Optional[str] = None,
        max_path_length: Optional[int] = None,
        link_cost=None,
        ibgp: bool = False,
        governor: Optional[Governor] = None,
    ) -> None:
        self.sketch = sketch
        self.spec = (
            specification.restricted_to(requirement)
            if requirement is not None
            else specification
        )
        self.full_spec = specification
        self.holes = dict(holes)
        self.max_path_length = max_path_length
        self.link_cost = link_cost
        self.ibgp = ibgp
        self.governor = governor
        self._variants: Dict[Optional[str], _Variant] = {}
        self._statement_terms: Dict[Tuple[Optional[str], str], Optional[Term]] = {}

    # ------------------------------------------------------------------

    def _variant(self, mutation: Optional[str]) -> _Variant:
        variant = self._variants.get(mutation)
        if variant is None:
            sketch = (
                renumber_routemaps(self.sketch, mutation)
                if mutation is not None
                else self.sketch
            )
            encoder = Encoder(
                sketch,
                self.spec,
                self.max_path_length,
                self.link_cost,
                ibgp=self.ibgp,
                governor=self.governor,
            )
            # Every job hole gets its variable, including holes that no
            # requirement candidate reaches (``_hole_env`` reads them).
            encoder.holes.register_all(self.holes.values())
            encoding = encoder.encode(include_selection=False)
            terms = []
            for name, group in encoding.groups.items():
                if name.startswith("requirement:"):
                    terms.extend(group)
            variant = _Variant(
                sketch=sketch,
                encoding=encoding,
                requirement=And(*terms),
                best_lookups=encoding.selection_lookups(),
            )
            self._variants[mutation] = variant
        return variant

    # ------------------------------------------------------------------

    def truth(
        self, case: AuditCase
    ) -> Tuple[bool, Optional[Dict[str, object]]]:
        """(does the network satisfy the requirement?, evaluation env).

        Mirrors the projection stage's classification semantics -- fill,
        simulate, evaluate the ground requirement -- but against this
        oracle's own fresh encoding.  Non-converging assignments
        violate the requirement and carry no environment.
        """
        variant = self._variant(case.mutation)
        assignment = case.assignment(self.holes)
        filled = variant.sketch.fill(assignment)
        try:
            outcome = simulate(
                filled,
                link_cost=variant.encoding.link_cost,
                ibgp=variant.encoding.ibgp,
                governor=self.governor,
                memo=variant.memo,
            )
        except ConvergenceError:
            return False, None
        env = self._hole_env(variant, assignment)
        rib = outcome.rib
        for name, router, prefix_text, hops in variant.best_lookups:
            selected = rib.get((router, prefix_text))
            env[name] = selected is not None and selected.path == hops
        return bool(variant.requirement.evaluate(env)), env

    def _hole_env(
        self, variant: _Variant, assignment: Mapping[str, object]
    ) -> Dict[str, object]:
        env: Dict[str, object] = {}
        for name, value in assignment.items():
            variable = variant.encoding.holes.variable(name)
            env[name] = value if variable.sort.is_int() else str(value)
        return env

    # ------------------------------------------------------------------

    def claim(
        self,
        subspec: Subspecification,
        case: AuditCase,
        env: Optional[Dict[str, object]],
    ) -> Optional[bool]:
        """What the subspecification says about the probe's assignment.

        ``None`` means the claim could not be evaluated for this case
        (a statement failed to encode, or referenced selection state a
        non-converging assignment does not have) -- counted as
        *unresolved*, never as agreement.
        """
        variant = self._variant(case.mutation)
        if subspec.lifted and subspec.statements:
            if env is None:
                # No selection state to evaluate statements under; the
                # low-level constraint (hole variables only) is the
                # claim's verdict on non-converging assignments.
                return self._low_level_claim(subspec, variant, case)
            for statement in subspec.statements:
                term = self._statement_term(statement, variant, case.mutation)
                if term is None:
                    return None
                try:
                    if not bool(term.evaluate(env)):
                        return False
                except KeyError:
                    return None
            return True
        if subspec.lifted:
            # Empty subspecification: the device may do anything.
            return True
        return self._low_level_claim(subspec, variant, case, env)

    def _low_level_claim(
        self,
        subspec: Subspecification,
        variant: _Variant,
        case: AuditCase,
        env: Optional[Dict[str, object]] = None,
    ) -> Optional[bool]:
        hole_env = self._hole_env(variant, case.assignment(self.holes))
        try:
            return bool(subspec.low_level.evaluate(hole_env))
        except KeyError:
            pass
        if env is not None:
            try:
                return bool(subspec.low_level.evaluate(env))
            except KeyError:
                pass
        return None

    def _statement_term(
        self, statement: Statement, variant: _Variant, mutation: Optional[str]
    ) -> Optional[Term]:
        """The filter-level encoding of one lifted statement, memoized
        per (mutation, statement) -- a fresh encode, not the lifting
        stage's cached term."""
        cache_key = (mutation, str(statement))
        if cache_key in self._statement_terms:
            return self._statement_terms[cache_key]
        block = RequirementBlock("audit", (statement,))
        local_spec = Specification((block,), self.full_spec.managed)
        term: Optional[Term]
        try:
            encoder = Encoder(
                variant.sketch,
                local_spec,
                variant.encoding.space.max_path_length,
                variant.encoding.link_cost,
                ibgp=variant.encoding.ibgp,
                governor=self.governor,
            )
            term = encoder.encode(include_selection=False).constraint
        except ReproError:
            raise
        except Exception:
            term = None
        self._statement_terms[cache_key] = term
        return term
