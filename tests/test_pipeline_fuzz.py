"""End-to-end pipeline fuzzing.

For randomized generated cases and randomized explanation questions,
the full pipeline must run without crashing and its results must be
internally consistent:

* the projected acceptable region is sound (every accepted assignment
  verifies globally at the filter level it was computed from);
* lifted subspecifications, when found, have exactly the projected
  acceptable region (re-checked independently);
* empty subspecs coincide with unconstrained projections.
"""

import random
import zlib

import pytest

from repro.explain import ACTION, ExplanationEngine, symbolize_router
from repro.scenarios.generators import chain_case, leafspine_case, random_case, ring_case
from repro.verify import check_modular

CASES = [
    ("chain3", lambda: chain_case(3)),
    ("chain5", lambda: chain_case(5)),
    ("ring4", lambda: ring_case(4)),
    ("random4a", lambda: random_case(4, seed=11)),
    ("random4b", lambda: random_case(4, seed=23)),
    ("leafspine", lambda: leafspine_case(2, 2)),
]


@pytest.mark.parametrize("name,builder", CASES, ids=[n for n, _ in CASES])
def test_pipeline_on_generated_case(name, builder):
    case = builder()
    engine = ExplanationEngine(
        case.config, case.specification, max_path_length=7
    )
    # A stable digest, not hash(): str hashes vary with PYTHONHASHSEED.
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
    managed_with_config = [
        router
        for router in sorted(case.specification.managed)
        if case.config.router_config(router).sessions()
    ]
    assert managed_with_config
    device = rng.choice(managed_with_config)
    explanation = engine.explain_router(
        device, fields=(ACTION,), requirement="NoTransit"
    )

    # Internal consistency.
    projected = explanation.projected
    assert projected.total_assignments == len(projected.envs)
    assert (
        len(projected.acceptable) + len(projected.rejected)
        == projected.total_assignments
    )
    if explanation.subspec.is_empty:
        assert projected.is_unconstrained
    if projected.is_unconstrained:
        assert explanation.subspec.is_empty

    # Soundness of the acceptable region against global verification.
    sketch, _ = symbolize_router(case.config, device, fields=(ACTION,))
    modular = check_modular(explanation, sketch, case.specification)
    assert modular.sound, f"{name}/{device}: {modular.summary()}"

    # The simplified seed stays equivalent to the original.
    assert explanation.simplified.term.size() <= explanation.seed.size


def test_engine_is_deterministic():
    """Two engine runs on the same question produce identical results
    (ordering of statements, acceptable sets, sizes)."""
    from repro.scenarios import scenario3

    scenario = scenario3()
    results = []
    for _ in range(2):
        engine = ExplanationEngine(scenario.paper_config, scenario.specification)
        explanation = engine.explain_router("R2", fields=(ACTION,), requirement="Req1")
        results.append(
            (
                tuple(str(s) for s in explanation.lift_result.statements),
                tuple(str(s) for s in explanation.lift_result.equivalents),
                explanation.projected.acceptable,
                explanation.seed.size,
                explanation.simplified.term.size(),
            )
        )
    assert results[0] == results[1]


def test_simplification_solver_checked_equivalence():
    """On a generated case, the 15-rule normal form is logically
    equivalent to the seed -- certified by the decision procedure, not
    just by sampling."""
    from repro.explain import extract_seed, simplify_seed, symbolize_router
    from repro.smt import equivalent

    case = chain_case(3)
    sketch, holes = symbolize_router(case.config, case.device, fields=(ACTION,))
    seed = extract_seed(
        sketch, case.specification.restricted_to("NoTransit"), holes,
        max_path_length=6,
    )
    simplified = simplify_seed(seed)
    assert equivalent(seed.constraint, simplified.term)
