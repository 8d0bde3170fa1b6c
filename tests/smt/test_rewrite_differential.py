"""Differential test: the kind-indexed rewrite engine against the engine
it replaced (``reference_rewrite.py``), which tried every rule at every
node and counted every event straight into ``obs``.

Indexing rules by term kind, batching the ``rewrite.*`` counters per
``simplify`` call and the negation-only ``complement`` check must
change nothing observable: over every case-study seed (per-router and
per-line), every leave-one-out rule subset and random terms, both
engines must reach the *same* normal form (identity, not equality),
the same :class:`RewriteStats` -- ``applications`` in the same order --
and the same stage-attributed ``rewrite.*`` and ``checkpoint.rewrite``
counters.  A budget that runs out mid-fixpoint must raise the same
error at the same step and leave the same counters behind.
"""

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explain.seed import extract_seed
from repro.farm.job import enumerate_jobs
from repro.obs import Instrumentation
from repro.runtime import Governor, ResourceExhausted, WorkBudget
from repro.scenarios import scenario1, scenario2, scenario3
from repro.scenarios.campus import campus_scenario
from repro.smt import ALL_RULES, RewriteEngine, RewriteStats, Term

from .reference_rewrite import REFERENCE_RULES, REFERENCE_RULES_BY_NAME, ReferenceEngine
from .strategies import terms_strategy

SCENARIOS = [scenario1, scenario2, scenario3, campus_scenario]


@lru_cache(maxsize=None)
def _seeds(build, per_line: bool) -> Tuple[Term, ...]:
    scenario = build()
    config, specification = scenario.paper_config, scenario.specification
    seeds = []
    for job in enumerate_jobs(config, specification, per_line=per_line):
        sketch, holes = job.symbolize(config)
        spec = (
            specification.restricted_to(job.requirement)
            if job.requirement is not None
            else specification
        )
        seeds.append(extract_seed(sketch, spec, holes).constraint)
    assert seeds
    return tuple(seeds)


def _rewrite_counters(obs: Instrumentation) -> dict:
    return {
        name: value
        for name, value in obs.metrics.counters.items()
        if "rewrite" in name
    }


class _Side:
    """One engine with its own instrumentation and governor."""

    def __init__(self, engine_class, rules, budget: Optional[WorkBudget] = None):
        self.obs = Instrumentation()
        self.governor = Governor(budget=budget)
        self.obs.watch(self.governor)
        self.engine = engine_class(rules, governor=self.governor, obs=self.obs)

    def simplify(self, term: Term):
        """(normal form or error, stats) of one call inside a span."""
        stats = RewriteStats()
        with self.obs.span("simplify"):
            try:
                return self.engine.simplify(term, stats), stats
            except ResourceExhausted as exc:
                return (type(exc), str(exc), exc.stage), stats

    def state(self) -> tuple:
        return _rewrite_counters(self.obs), self.governor.accounting()


def _subsets(excluded: Optional[str]):
    """The production and reference rule lists without ``excluded``."""
    if excluded is None:
        return None, None
    return (
        [rule for rule in ALL_RULES if rule.name != excluded],
        [rule for rule in REFERENCE_RULES if rule.name != excluded],
    )


def _assert_same(terms: Sequence[Term], excluded: Optional[str] = None, budget=None):
    """Both engines over ``terms`` in order: per-call agreement, with one
    long-lived engine pair (the cache carries across calls) and a fresh
    pair per call."""
    rules, reference_rules = _subsets(excluded)
    make_budget = (lambda: None) if budget is None else budget
    shared = (
        _Side(RewriteEngine, rules, make_budget()),
        _Side(ReferenceEngine, reference_rules, make_budget()),
    )
    for term in terms:
        fresh = (
            _Side(RewriteEngine, rules, make_budget()),
            _Side(ReferenceEngine, reference_rules, make_budget()),
        )
        for production, reference in (shared, fresh):
            got, got_stats = production.simplify(term)
            want, want_stats = reference.simplify(term)
            if isinstance(want, Term):
                assert got is want
            else:
                assert got == want
            assert got_stats == want_stats
            assert list(got_stats.applications.items()) == list(
                want_stats.applications.items()
            )
            assert production.state() == reference.state()


def test_reference_rules_match_production_rules():
    assert [rule.name for rule in ALL_RULES] == [rule.name for rule in REFERENCE_RULES]
    assert set(REFERENCE_RULES_BY_NAME) == {rule.name for rule in ALL_RULES}


@pytest.mark.parametrize("per_line", [False, True], ids=["router", "line"])
@pytest.mark.parametrize("build", SCENARIOS, ids=lambda build: build.__name__)
def test_every_case_study_seed_agrees(build, per_line):
    _assert_same(_seeds(build, per_line))


@pytest.mark.parametrize("excluded", [rule.name for rule in ALL_RULES])
def test_every_leave_one_out_subset_agrees(excluded):
    seeds = _seeds(scenario1, per_line=False) + _seeds(scenario1, per_line=True)
    _assert_same(seeds, excluded)


@pytest.mark.parametrize("per_line", [False, True], ids=["router", "line"])
@pytest.mark.parametrize("build", SCENARIOS, ids=lambda build: build.__name__)
def test_budget_runs_out_at_the_same_step(build, per_line):
    seeds = _seeds(build, per_line)
    # Half of the first seed's steps: the abort lands mid-fixpoint.
    steps = RewriteStats()
    RewriteEngine().simplify(seeds[0], steps)
    limit = steps.total_applications // 2
    assert limit > 0
    _assert_same(seeds, budget=lambda: WorkBudget(rewrite_steps=limit))


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(terms_strategy(), min_size=1, max_size=4),
    excluded=st.sampled_from([None] + [rule.name for rule in ALL_RULES]),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
)
def test_random_terms_agree(terms, excluded, limit):
    budget = None if limit is None else (lambda: WorkBudget(rewrite_steps=limit))
    _assert_same(terms, excluded, budget)
