"""The end-to-end explanation engine (paper Figure 6).

Given a concrete synthesized configuration, a global specification and
a question ("explain these fields of this router, for this
requirement"), the engine runs the four-step pipeline:

1. partial symbolization        (:mod:`repro.explain.symbolize`)
2. seed specification           (:mod:`repro.explain.seed`)
3. rewrite-rule simplification  (:mod:`repro.explain.simplifier`)
4. projection + lifting         (:mod:`repro.explain.project`,
                                 :mod:`repro.explain.lift`)

and returns an :class:`Explanation` bundling every intermediate
artifact, sized and timed for the benchmark harness.

When a :class:`~repro.runtime.Governor` is attached, the pipeline
*degrades gracefully* instead of crashing on an exhausted deadline or
budget: the fallback chain is exact lift -> partial lift over the
explored candidates -> raw simplified constraints, and the resulting
:class:`Explanation` carries an explicit :class:`ExplanationStatus`
plus per-stage budget accounting in ``timings``.  Without a governor
the behaviour is byte-identical to the ungoverned pipeline and every
explanation reports ``EXACT``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..bgp.config import NetworkConfig
from ..bgp.sketch import Hole
from ..obs import Instrumentation
from ..runtime import GOVERNED_ERRORS, Governor
from ..smt import RewriteRule, RewriteStats, TRUE
from ..spec.ast import Specification
from .lift import LiftResult, lift
from .project import ProjectedSpec, project
from .seed import SeedSpecification, extract_seed
from .simplifier import SimplifiedSeed, simplify_seed
from .subspec import Subspecification
from .symbolize import ACTION, FieldRef, symbolize, symbolize_line, symbolize_router

__all__ = ["Explanation", "ExplanationEngine", "ExplanationStatus"]


class ExplanationStatus(enum.Enum):
    """How complete an explanation run was under its resource limits.

    ``EXACT``
        Every stage ran to completion (always the case without a
        governor).
    ``DEGRADED_LIFT``
        A governed limit fired, but a lifted subspecification was still
        found over the candidates explored before the interrupt.
    ``DEGRADED_RAW``
        Lifting (or the projection it needs) was cut short; the
        explanation falls back to the raw simplified constraints.
    ``FAILED``
        Not even a seed specification could be produced within the
        limits; the explanation carries no artifacts.
    """

    EXACT = "EXACT"
    DEGRADED_LIFT = "DEGRADED_LIFT"
    DEGRADED_RAW = "DEGRADED_RAW"
    FAILED = "FAILED"

    @property
    def degraded(self) -> bool:
        return self is not ExplanationStatus.EXACT


@dataclass
class Explanation:
    """Everything produced while answering one explanation question.

    Artifacts that a governed run could not produce are ``None`` (only
    possible when ``status`` is not ``EXACT``); ``degradation`` then
    holds a human-readable account of what was cut short.
    """

    device: str
    requirement: str
    seed: Optional[SeedSpecification]
    simplified: Optional[SimplifiedSeed]
    projected: Optional[ProjectedSpec]
    lift_result: Optional[LiftResult]
    subspec: Subspecification
    timings: Dict[str, float] = field(default_factory=dict)
    status: ExplanationStatus = ExplanationStatus.EXACT
    degradation: Optional[str] = None

    @property
    def seed_constraints(self) -> int:
        return self.seed.num_constraints if self.seed is not None else 0

    @property
    def simplified_constraints(self) -> int:
        return self.simplified.output_constraints if self.simplified is not None else 0

    @property
    def reduction_factor(self) -> float:
        return self.simplified.constraint_reduction if self.simplified is not None else 1.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding; see :mod:`repro.explain.serialize`."""
        from .serialize import explanation_to_dict

        return explanation_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Explanation":
        from .serialize import explanation_from_dict

        return explanation_from_dict(payload)

    def report(self) -> str:
        """A human-readable account of the whole run."""
        if self.seed is None or self.simplified is None or self.projected is None:
            lines = [
                f"explanation for {self.device} "
                f"(requirement {self.requirement}):",
                f"  status               : {self.status.value}"
                + (f" ({self.degradation})" if self.degradation else ""),
                "",
                self.subspec.render(),
            ]
            return "\n".join(lines)
        lines = [
            f"explanation for {self.device} "
            f"(requirement {self.requirement}):",
            f"  symbolized variables : {', '.join(sorted(self.projected.holes))}",
            f"  seed specification   : {self.seed.num_constraints} constraints, "
            f"{self.seed.size} nodes",
            f"  simplified           : {self.simplified.output_constraints} constraints, "
            f"{self.simplified.term.size()} nodes "
            f"(x{self.reduction_factor:.0f} reduction)",
            f"  acceptable configs   : {len(self.projected.acceptable)} / "
            f"{self.projected.total_assignments}",
        ]
        if self.status.degraded:
            lines.insert(
                1,
                f"  status               : {self.status.value}"
                + (f" ({self.degradation})" if self.degradation else ""),
            )
        lines.extend(["", self.subspec.render()])
        return "\n".join(lines)


class ExplanationEngine:
    """Answers explanation questions about a synthesized configuration.

    >>> engine = ExplanationEngine(config, specification)
    ... # doctest: +SKIP
    >>> explanation = engine.explain_router("R1", requirement="Req1")
    ... # doctest: +SKIP

    ``governor`` bounds every stage of every question this engine
    answers; all questions share its deadline and budget.  Every
    question runs all four stages, so a governed answer spends its
    budget on the whole pipeline and depends on nothing stored.

    ``obs`` attaches an :class:`~repro.obs.Instrumentation` bundle: each
    pipeline stage runs inside a span (``seed``, ``simplify``,
    ``project``, ``lift``) and the hot paths record work counters with
    stage attribution.  The public ``Explanation.timings`` mapping is a
    view derived from those spans, so its keys are unchanged.  When
    both ``obs`` and ``governor`` are given, the instrumentation also
    subscribes to the governor's checkpoint stream.

    ``recorder`` observes every route-map transfer the pipeline applies
    (duck-typed: ``symbolic(...)`` / ``concrete(...)``; see
    :class:`repro.farm.readset.TransferRecorder`), capturing the
    rest-of-network slice a question actually reads so the farm can
    invalidate cached answers precisely.
    """

    def __init__(
        self,
        config: NetworkConfig,
        specification: Specification,
        max_path_length: Optional[int] = None,
        rules: Optional[Sequence[RewriteRule]] = None,
        projection_limit: int = 4096,
        link_cost=None,
        ibgp: bool = False,
        governor: Optional[Governor] = None,
        obs: Optional[Instrumentation] = None,
        recorder=None,
        shared=None,
    ) -> None:
        if config.has_holes():
            raise ValueError("the explanation engine expects a concrete configuration")
        if shared is not None and governor is not None:
            # Sharing is only sound ungoverned: a cached stage result
            # reflects no budget consumption, so serving it under a
            # deadline/budget would make answers depend on cache state.
            raise ValueError("shared caches cannot be combined with a governor")
        self.config = config
        self.specification = specification
        self.max_path_length = max_path_length
        self.rules = rules
        self.projection_limit = projection_limit
        self.link_cost = link_cost
        self.ibgp = ibgp
        self.governor = governor
        self.obs = obs
        self.recorder = recorder
        #: Optional :class:`~repro.explain.family.SharedCaches`: the
        #: cross-question cache layer the farm threads through sibling
        #: jobs of one batch.  Stage outputs are byte-identical with or
        #: without it (sharing works by memoized recomputation over
        #: hash-consed terms, never by substitution).
        self.shared = shared
        if obs is not None and governor is not None:
            obs.watch(governor)
        # Questions are pure functions of (symbolized fields,
        # requirement) for a fixed engine, so answers are memoized --
        # the per-requirement reports re-ask the same questions.  Only
        # EXACT answers are cached: a degraded answer reflects the
        # budget state at the time it was cut short, not the question.
        self._cache: Dict[tuple, Explanation] = {}

    # ------------------------------------------------------------------

    def explain(
        self,
        device: str,
        targets: Sequence[FieldRef],
        requirement: Optional[str] = None,
    ) -> Explanation:
        """Explain the given fields of ``device``.

        ``requirement`` restricts the question to one requirement block
        (Scenario 3's "ask about each requirement individually"); the
        default explains against the whole specification.
        """
        sketch, holes = symbolize(self.config, list(targets))
        return self._run(device, sketch, holes, requirement)

    def explain_line(
        self,
        device: str,
        direction: str,
        neighbor: str,
        seq: int,
        fields: Sequence[str] = (ACTION,),
        requirement: Optional[str] = None,
    ) -> Explanation:
        """Explain selected fields of a single route-map line."""
        sketch, holes = symbolize_line(self.config, device, direction, neighbor, seq, fields)
        return self._run(device, sketch, holes, requirement)

    def explain_router(
        self,
        device: str,
        fields: Sequence[str] = (ACTION,),
        requirement: Optional[str] = None,
    ) -> Explanation:
        """Explain a field kind across every line of a router."""
        sketch, holes = symbolize_router(self.config, device, fields)
        return self._run(device, sketch, holes, requirement)

    def relift(
        self,
        device: str,
        sketch: NetworkConfig,
        holes: Dict[str, Hole],
        requirement: Optional[str] = None,
        forced_acceptances=frozenset(),
        forced_rejections=frozenset(),
    ) -> Explanation:
        """Re-run projection + lifting under counterexample constraints.

        This is the audit loop's feedback seam: ``forced_acceptances``
        and ``forced_rejections`` are assignment keys (sorted
        ``(name, str(value))`` tuples) that an adversarial audit proved
        belong on the other side of the acceptable region, and the lift
        search re-runs against the corrected region.

        The run is deliberately isolated from the normal pipeline's
        memoization: it never lands in the engine's answer cache, so
        corrected artifacts can never shadow (or be shadowed by) the
        canonical ones.
        """
        from .project import reclassify

        spec = (
            self.specification.restricted_to(requirement)
            if requirement is not None
            else self.specification
        )
        requirement_name = requirement if requirement is not None else "<all>"
        obs = self.obs if self.obs is not None else Instrumentation()
        timings: Dict[str, float] = {}
        with obs.span("seed") as span:
            seed = extract_seed(
                sketch, spec, holes, self.max_path_length, self.link_cost,
                self.ibgp, governor=self.governor, obs=self.obs,
                recorder=self.recorder,
            )
        timings["seed"] = span.duration
        with obs.span("project") as span:
            projected = project(
                seed, sketch, limit=self.projection_limit,
                governor=self.governor, obs=self.obs, recorder=self.recorder,
            )
            corrected = reclassify(
                seed, projected,
                forced_acceptances=forced_acceptances,
                forced_rejections=forced_rejections,
            )
        timings["project"] = span.duration
        with obs.span("lift") as span:
            lift_result = lift(
                device, sketch, spec, seed, corrected, corrected.envs,
                governor=self.governor, obs=self.obs, recorder=self.recorder,
            )
        timings["lift"] = span.duration
        lifted = lift_result.lifted
        subspec = Subspecification(
            device=device,
            requirement=requirement_name,
            statements=lift_result.statements if lifted else (),
            lifted=lifted,
            low_level=corrected.term,
            variables=tuple(sorted(holes)),
        )
        return Explanation(
            device=device,
            requirement=requirement_name,
            seed=seed,
            simplified=None,
            projected=corrected,
            lift_result=lift_result,
            subspec=subspec,
            timings=timings,
            status=ExplanationStatus.EXACT,
        )

    # ------------------------------------------------------------------

    def _cache_key(self, holes: Dict[str, Hole], requirement_name: str) -> tuple:
        """The memoization key for one question.

        Beyond the hole names and requirement, the key pins everything
        that can change the *answer*: the hole domains (two questions
        may symbolize the same fields over different value sets) and
        the engine options/governor limits -- so answers computed under
        one configuration of the engine are never served for another.
        """
        rules = (
            tuple(rule.name for rule in self.rules) if self.rules is not None else None
        )
        governor_fp = None
        if self.governor is not None:
            deadline = (
                self.governor.deadline.seconds
                if self.governor.deadline is not None
                else None
            )
            budget = (
                tuple(
                    sorted(
                        (kind, limit)
                        for kind, limit in self.governor.budget.limits.items()
                        if limit is not None
                    )
                )
                if self.governor.budget is not None
                else None
            )
            governor_fp = (deadline, budget)
        options = (
            self.max_path_length,
            self.projection_limit,
            bool(self.ibgp),
            id(self.link_cost) if self.link_cost is not None else None,
            rules,
            governor_fp,
        )
        domains = tuple(
            (name, tuple(str(value) for value in holes[name].domain))
            for name in sorted(holes)
        )
        return (domains, requirement_name, options)

    def _run(
        self,
        device: str,
        sketch: NetworkConfig,
        holes: Dict[str, Hole],
        requirement: Optional[str],
    ) -> Explanation:
        spec = (
            self.specification.restricted_to(requirement)
            if requirement is not None
            else self.specification
        )
        requirement_name = requirement if requirement is not None else "<all>"
        cache_key = self._cache_key(holes, requirement_name)
        cached = self._cache.get(cache_key)
        if cached is not None:
            if self.obs is not None:
                self.obs.count("engine.cache_hits")
            return cached
        governor = self.governor
        # Stage timings are derived from spans.  A private throwaway
        # Instrumentation keeps the span machinery (and therefore the
        # timing code path) identical when the engine is uninstrumented;
        # the hot paths still receive ``self.obs`` (possibly ``None``).
        obs = self.obs if self.obs is not None else Instrumentation()
        timings: Dict[str, float] = {}
        degradations = []

        seed_error: Optional[BaseException] = None
        seed: Optional[SeedSpecification] = None
        with obs.span("seed") as span:
            try:
                if self.shared is not None:
                    seed = self.shared.seed_for(
                        sketch, holes, requirement, obs=self.obs,
                        recorder=self.recorder,
                    )
                else:
                    seed = extract_seed(
                        sketch, spec, holes, self.max_path_length, self.link_cost,
                        self.ibgp, governor=governor, obs=self.obs,
                        recorder=self.recorder,
                    )
            except GOVERNED_ERRORS as exc:
                seed_error = exc
        timings["seed"] = span.duration
        if seed is None:
            return self._finish(
                Explanation(
                    device=device,
                    requirement=requirement_name,
                    seed=None,
                    simplified=None,
                    projected=None,
                    lift_result=None,
                    subspec=Subspecification(
                        device=device,
                        requirement=requirement_name,
                        statements=(),
                        lifted=False,
                        low_level=TRUE,
                        variables=tuple(sorted(holes)),
                    ),
                    timings=timings,
                    status=ExplanationStatus.FAILED,
                    degradation=f"seed extraction interrupted: {seed_error}",
                ),
                cache_key,
            )

        with obs.span("simplify") as span:
            try:
                simplified = simplify_seed(
                    seed, rules=self.rules, governor=governor, obs=self.obs
                )
            except GOVERNED_ERRORS as exc:
                # Fall back to the unsimplified seed constraint; later
                # stages do not depend on the simplified term.
                simplified = SimplifiedSeed(
                    term=seed.constraint,
                    stats=RewriteStats(
                        input_size=seed.size, output_size=seed.size
                    ),
                    input_constraints=seed.num_constraints,
                    output_constraints=seed.num_constraints,
                )
                degradations.append(f"simplification interrupted: {exc}")
        timings["simplify"] = span.duration

        projected: Optional[ProjectedSpec] = None
        lift_result: Optional[LiftResult] = None
        with obs.span("project") as span:
            try:
                projected = project(
                    seed, sketch, limit=self.projection_limit, governor=governor,
                    obs=self.obs, recorder=self.recorder,
                    sim_cache=(
                        self.shared.simulations
                        if self.shared is not None
                        else None
                    ),
                )
            except GOVERNED_ERRORS as exc:
                degradations.append(f"projection interrupted: {exc}")
        timings["project"] = span.duration

        with obs.span("lift") as span:
            if projected is not None:
                lift_result = lift(
                    device, sketch, spec, seed, projected, projected.envs,
                    governor=governor, obs=self.obs, recorder=self.recorder,
                    term_cache=(
                        self.shared.term_cache_for(holes)
                        if self.shared is not None
                        else None
                    ),
                )
                if lift_result.exhausted:
                    degradations.append("lift search interrupted")
        timings["lift"] = span.duration

        if lift_result is not None and (lift_result.lifted or not degradations):
            statements = lift_result.statements
            lifted = lift_result.lifted
            low_level = projected.term
        else:
            # Raw fallback: the best constraint-level artifact we have.
            statements = ()
            lifted = False
            low_level = projected.term if projected is not None else simplified.term

        if not degradations:
            status = ExplanationStatus.EXACT
        elif lift_result is not None and lift_result.lifted:
            status = ExplanationStatus.DEGRADED_LIFT
        else:
            status = ExplanationStatus.DEGRADED_RAW

        subspec = Subspecification(
            device=device,
            requirement=requirement_name,
            statements=statements,
            lifted=lifted,
            low_level=low_level,
            variables=tuple(sorted(holes)),
        )
        explanation = Explanation(
            device=device,
            requirement=requirement_name,
            seed=seed,
            simplified=simplified,
            projected=projected,
            lift_result=lift_result,
            subspec=subspec,
            timings=timings,
            status=status,
            degradation="; ".join(degradations) if degradations else None,
        )
        return self._finish(explanation, cache_key)

    def _finish(self, explanation: Explanation, cache_key: tuple) -> Explanation:
        """Stamp budget accounting and cache exact answers."""
        if self.governor is not None:
            for name, value in self.governor.accounting().items():
                explanation.timings[name] = value
        if explanation.status is ExplanationStatus.EXACT:
            self._cache[cache_key] = explanation
        return explanation
