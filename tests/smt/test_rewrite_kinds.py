"""The term kinds each rewrite rule declares are sound.

The engine tries a rule only at nodes of the kinds it declares, so a
declaration that left out a kind the rule can fire on would silently
change normal forms.  For every built-in rule and every term kind
outside its declaration -- ``plus`` included -- ``apply`` must return
``None`` on generated terms of that kind.  A custom rule that declares
no kinds is tried at every node, and first-match order follows the
rule list whatever the kinds.
"""

from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    ALL_RULES,
    FALSE,
    TRUE,
    And,
    BoolVar,
    EnumSort,
    EnumVal,
    EnumVar,
    Eq,
    Iff,
    Implies,
    IntVal,
    Ite,
    Le,
    Lt,
    Not,
    Or,
    Plus,
    RewriteEngine,
    RewriteRule,
    Term,
)
from repro.smt.terms import TermKind

from .strategies import bool_vars, int_vars, terms_strategy

COLOR = EnumSort("KindColor", ("red", "green", "blue"))

ALL_KINDS = (
    TermKind.CONST,
    TermKind.VAR,
    TermKind.NOT,
    TermKind.AND,
    TermKind.OR,
    TermKind.IMPLIES,
    TermKind.IFF,
    TermKind.EQ,
    TermKind.LE,
    TermKind.LT,
    TermKind.ITE,
    TermKind.PLUS,
)


def _int_terms() -> st.SearchStrategy[Term]:
    simple = st.one_of(
        st.sampled_from(int_vars()),
        st.sampled_from([IntVal(v) for v in (-1, 0, 1, 2, 3, 4)]),
    )
    return st.one_of(
        simple,
        st.builds(lambda a, b: Plus(a, b), st.sampled_from(int_vars()), simple),
        st.builds(Ite, terms_strategy(max_leaves=4), simple, simple),
    )


def _bools() -> st.SearchStrategy[Term]:
    # Constants, negations, duplicates and var = const equalities are
    # what the connective rules look for, so they come often.
    return st.one_of(
        terms_strategy(max_leaves=6),
        st.sampled_from([TRUE, FALSE] + bool_vars()),
        st.sampled_from(bool_vars()).map(Not),
        st.builds(Eq, st.sampled_from(int_vars()), st.sampled_from([IntVal(1), IntVal(9)])),
    )


def _nary(builder) -> st.SearchStrategy[Term]:
    return st.lists(_bools(), min_size=2, max_size=4).map(lambda ts: builder(*ts))


def _kind_terms() -> Dict[str, st.SearchStrategy[Term]]:
    ints = _int_terms()
    return {
        TermKind.CONST: st.sampled_from(
            [TRUE, FALSE, IntVal(0), IntVal(7), EnumVal(COLOR, "red")]
        ),
        TermKind.VAR: st.sampled_from(
            bool_vars() + int_vars() + [EnumVar("kind_color", COLOR)]
        ),
        TermKind.NOT: st.builds(Not, _bools()),
        TermKind.AND: _nary(And),
        TermKind.OR: _nary(Or),
        TermKind.IMPLIES: st.builds(Implies, _bools(), _bools()),
        TermKind.IFF: st.builds(Iff, _bools(), _bools()),
        TermKind.EQ: st.builds(Eq, ints, ints),
        TermKind.LE: st.builds(Le, ints, ints),
        TermKind.LT: st.builds(Lt, ints, ints),
        TermKind.ITE: st.builds(Ite, _bools(), ints, ints),
        TermKind.PLUS: st.builds(
            lambda a, b, c: Plus(a, b, c),
            st.sampled_from(int_vars()),
            st.sampled_from(int_vars()),
            ints,
        ),
    }


KIND_TERMS = _kind_terms()


def test_every_term_kind_is_covered():
    declared = {
        value
        for name, value in vars(TermKind).items()
        if name.isupper() and isinstance(value, str)
    }
    assert declared == set(ALL_KINDS) == set(KIND_TERMS)


def test_every_built_in_rule_declares_kinds():
    for rule in ALL_RULES:
        assert rule.kinds, rule.name
        assert set(rule.kinds) <= set(ALL_KINDS), rule.name


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rules_never_fire_outside_their_kinds(kind, data):
    term = data.draw(KIND_TERMS[kind])
    if term.kind != kind:  # a builder normalised the draw away
        return
    for rule in ALL_RULES:
        if kind not in rule.kinds:
            assert rule.apply(term) is None, (rule.name, term)


def _recording_rule(seen: List[str], kinds=None) -> RewriteRule:
    def observe(term: Term):
        seen.append(term.kind)
        return None

    return RewriteRule("record", "records the kinds it is tried on", observe, kinds)


def _every_kind_term() -> Term:
    p, q, r = bool_vars()
    x, y = int_vars()
    return And(
        Not(p),
        Or(q, Implies(p, Iff(q, r))),
        Le(x, Plus(x, y)),
        Eq(Ite(p, x, y), IntVal(2)),
        Lt(x, IntVal(3)),
        Eq(EnumVar("kind_color", COLOR), EnumVal(COLOR, "blue")),
    )


def test_rule_without_kinds_is_tried_at_every_kind():
    term = _every_kind_term()
    seen: List[str] = []
    RewriteEngine([_recording_rule(seen)]).simplify(term)
    assert set(seen) == {node.kind for node in term.iter_subterms()} == set(ALL_KINDS)


def test_rule_with_kinds_is_tried_only_there():
    seen: List[str] = []
    kinds = frozenset({TermKind.NOT, TermKind.PLUS})
    RewriteEngine([_recording_rule(seen, kinds)]).simplify(_every_kind_term())
    assert set(seen) == kinds


def test_first_match_follows_the_rule_list():
    a = BoolVar("a")

    def double_to_false(term: Term):
        if term.kind == TermKind.NOT and term.children[0].kind == TermKind.NOT:
            return FALSE
        return None

    to_false = RewriteRule("double-to-false", "!!a -> false", double_to_false)
    double_negation = next(rule for rule in ALL_RULES if rule.name == "double-negation")
    assert RewriteEngine([to_false, double_negation]).simplify(Not(Not(a))) is FALSE
    assert RewriteEngine([double_negation, to_false]).simplify(Not(Not(a))) is a
