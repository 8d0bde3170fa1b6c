"""Differential test: memoized ``Term.evaluate`` against the tree walk.

``Term.evaluate`` evaluates each shared subterm of a hash-consed DAG
once per call.  The reference below is the tree walk it replaced,
verbatim: it re-evaluates shared subterms and short-circuits
AND/OR/IMPLIES/ITE left to right.  Over every requirement and
statement term the audit oracle evaluates on the case studies, under
the environments it evaluates them in, both must return the same value
of the same type -- and under partial or ill-sorted environments they
must raise the same error (the oracle turns ``KeyError`` into an
*unresolved* claim, so which inputs raise is part of the contract).
"""

import pytest

from repro.audit.adjudicator import _default_environment_routers
from repro.audit.oracle import Oracle
from repro.audit.suite import generate_suite
from repro.explain import ExplanationEngine
from repro.farm.job import enumerate_jobs
from repro.scenarios import SCENARIOS
from repro.smt import Term
from repro.smt.terms import TermKind

CASE_STUDIES = ("scenario1", "scenario2", "scenario3", "campus")


def tree_evaluate(term, assignment):
    """The unmemoized evaluator ``Term.evaluate`` replaced."""
    kind = term.kind
    if kind == TermKind.CONST:
        return term.payload
    if kind == TermKind.VAR:
        value = assignment[term.payload]
        term._check_assignable(value)
        return value
    if kind == TermKind.NOT:
        return not tree_evaluate(term.children[0], assignment)
    if kind == TermKind.AND:
        return all(tree_evaluate(child, assignment) for child in term.children)
    if kind == TermKind.OR:
        return any(tree_evaluate(child, assignment) for child in term.children)
    if kind == TermKind.IMPLIES:
        lhs, rhs = term.children
        return (not tree_evaluate(lhs, assignment)) or bool(tree_evaluate(rhs, assignment))
    if kind == TermKind.IFF:
        lhs, rhs = term.children
        return bool(tree_evaluate(lhs, assignment)) == bool(tree_evaluate(rhs, assignment))
    if kind == TermKind.EQ:
        lhs, rhs = term.children
        return tree_evaluate(lhs, assignment) == tree_evaluate(rhs, assignment)
    if kind == TermKind.LE:
        lhs, rhs = term.children
        return tree_evaluate(lhs, assignment) <= tree_evaluate(rhs, assignment)
    if kind == TermKind.LT:
        lhs, rhs = term.children
        return tree_evaluate(lhs, assignment) < tree_evaluate(rhs, assignment)
    if kind == TermKind.ITE:
        cond, then, orelse = term.children
        branch = then if tree_evaluate(cond, assignment) else orelse
        return tree_evaluate(branch, assignment)
    if kind == TermKind.PLUS:
        return sum(tree_evaluate(child, assignment) for child in term.children)
    raise AssertionError(f"unhandled kind {kind}")


def outcome(evaluate, term, env):
    """(value type, value) or (exception type, exception args)."""
    try:
        value = evaluate(term, env)
    except Exception as exc:  # noqa: BLE001 - the error is what is compared
        return type(exc), exc.args
    return type(value), value


def oracle_evaluations(name, monkeypatch):
    """Every (term, env) the audit oracle evaluates over the scenario's
    per-router jobs, one seeded suite each (environment probes too)."""
    scenario = SCENARIOS[name]()
    config, specification = scenario.paper_config, scenario.specification
    engine = ExplanationEngine(config, specification)
    seen = []
    original = Term.evaluate

    def recording(term, env):
        seen.append((term, dict(env)))
        return original(term, env)

    for job in enumerate_jobs(config, specification):
        sketch, holes = job.symbolize(config)
        subspec = job.run(engine).subspec
        oracle = Oracle(sketch, specification, holes, requirement=job.requirement)
        suite = generate_suite(
            holes,
            seed=0,
            environment_routers=_default_environment_routers(sketch, job.device),
        )
        with monkeypatch.context() as patch:
            patch.setattr(Term, "evaluate", recording)
            for case in suite.cases:
                _, env = oracle.truth(case)
                oracle.claim(subspec, case, env)
    return seen


def variants(env):
    """The environment itself, partial environments, and ill-sorted
    ones: each drops or corrupts one deterministic choice of key."""
    names = sorted(env)
    yield env
    if not names:
        return
    for dropped in {names[0], names[len(names) // 2], names[-1]}:
        yield {key: value for key, value in env.items() if key != dropped}
    yield {key: value for index, (key, value) in enumerate(sorted(env.items())) if index % 2}
    for name in {names[0], names[-1]}:
        value = env[name]
        wrong = 1 if isinstance(value, bool) else True
        yield {**env, name: wrong}
        yield {**env, name: None}


@pytest.mark.parametrize("name", CASE_STUDIES)
def test_memoized_evaluate_matches_the_tree_walk(name, monkeypatch):
    evaluations = oracle_evaluations(name, monkeypatch)
    assert evaluations
    compared = raised = 0
    for term, env in evaluations:
        for probe in variants(env):
            expected = outcome(tree_evaluate, term, probe)
            assert outcome(Term.evaluate, term, probe) == expected, (term, probe)
            compared += 1
            raised += isinstance(expected[0], type) and issubclass(
                expected[0], Exception
            )
    # Partial and ill-sorted environments really did raise somewhere.
    assert 0 < raised < compared
