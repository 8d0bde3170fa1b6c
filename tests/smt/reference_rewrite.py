"""Test-only reference: the rewrite fixpoint before rule kinds existed.

This is the rewrite engine and its 15 rules as they were before the
engine indexed rules by term kind and batched its counters, kept
verbatim so the production :class:`repro.smt.rewrite.RewriteEngine` can
be checked against it (``test_rewrite_differential.py``).  Every node
tries every rule in list order, every step and cache hit counts
straight into ``obs``, and ``complement`` builds ``Not(child)`` for
each non-negated child.  It is deliberately not importable from
``src/``: production code has exactly one rewrite engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import Instrumentation
from repro.runtime import Governor
from repro.smt import RewriteStats
from repro.smt.builders import And, FALSE, Implies, Not, Or, TRUE
from repro.smt.terms import Term, TermKind

__all__ = ["REFERENCE_RULES", "REFERENCE_RULES_BY_NAME", "ReferenceEngine", "ReferenceRule"]


@dataclass(frozen=True)
class ReferenceRule:
    """A named local rewrite rule.

    ``apply`` inspects a single term node and returns the rewritten
    term, or ``None`` when the rule does not fire at that node.
    """

    name: str
    description: str
    apply: Callable[[Term], Optional[Term]]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReferenceRule({self.name})"


# ----------------------------------------------------------------------
# Rule implementations.  Each returns None when it does not fire.
# ----------------------------------------------------------------------


def _not_const(term: Term) -> Optional[Term]:
    if term.kind != TermKind.NOT:
        return None
    inner = term.children[0]
    if inner.is_true():
        return FALSE
    if inner.is_false():
        return TRUE
    return None


def _double_negation(term: Term) -> Optional[Term]:
    if term.kind != TermKind.NOT:
        return None
    inner = term.children[0]
    if inner.kind == TermKind.NOT:
        return inner.children[0]
    return None


def _and_identity(term: Term) -> Optional[Term]:
    if term.kind != TermKind.AND:
        return None
    kept = tuple(child for child in term.children if not child.is_true())
    if len(kept) == len(term.children):
        return None
    return And(*kept)


def _and_annihilate(term: Term) -> Optional[Term]:
    if term.kind != TermKind.AND:
        return None
    if any(child.is_false() for child in term.children):
        return FALSE
    return None


def _or_identity(term: Term) -> Optional[Term]:
    if term.kind != TermKind.OR:
        return None
    kept = tuple(child for child in term.children if not child.is_false())
    if len(kept) == len(term.children):
        return None
    return Or(*kept)


def _or_annihilate(term: Term) -> Optional[Term]:
    if term.kind != TermKind.OR:
        return None
    if any(child.is_true() for child in term.children):
        return TRUE
    return None


def _idempotence(term: Term) -> Optional[Term]:
    if term.kind not in (TermKind.AND, TermKind.OR):
        return None
    seen = set()
    kept: List[Term] = []
    for child in term.children:
        if child not in seen:
            seen.add(child)
            kept.append(child)
    if len(kept) == len(term.children):
        return None
    rebuild = And if term.kind == TermKind.AND else Or
    return rebuild(*kept)


def _complement(term: Term) -> Optional[Term]:
    """``a & !a -> false`` and the paper's ``a | !a -> true``."""
    if term.kind not in (TermKind.AND, TermKind.OR):
        return None
    members = set(term.children)
    for child in term.children:
        negation = child.children[0] if child.kind == TermKind.NOT else Not(child)
        if child.kind == TermKind.NOT:
            complement_present = negation in members
        else:
            complement_present = negation in members
        if complement_present:
            return FALSE if term.kind == TermKind.AND else TRUE
    return None


def _implies_elim(term: Term) -> Optional[Term]:
    """Includes the paper's quoted rule ``false -> a = true``."""
    if term.kind != TermKind.IMPLIES:
        return None
    lhs, rhs = term.children
    if lhs.is_false():
        return TRUE
    if lhs.is_true():
        return rhs
    if rhs.is_true():
        return TRUE
    if rhs.is_false():
        return Not(lhs)
    if lhs is rhs:
        return TRUE
    return None


def _iff_elim(term: Term) -> Optional[Term]:
    if term.kind != TermKind.IFF:
        return None
    lhs, rhs = term.children
    if lhs.is_true():
        return rhs
    if rhs.is_true():
        return lhs
    if lhs.is_false():
        return Not(rhs)
    if rhs.is_false():
        return Not(lhs)
    if lhs is rhs:
        return TRUE
    return None


def _ite_fold(term: Term) -> Optional[Term]:
    if term.kind != TermKind.ITE:
        return None
    cond, then, orelse = term.children
    if cond.is_true():
        return then
    if cond.is_false():
        return orelse
    if then is orelse:
        return then
    return None


def _relation_fold(term: Term) -> Optional[Term]:
    """Constant folding and domain-aware folding of ``=``, ``<=``, ``<``.

    Also distributes relations over ``ite`` so that, after
    normalisation, every atom relates variables and constants directly
    (a shape both the human-readable reports and the SAT layer rely
    on).
    """
    if term.kind not in TermKind.ATOM_RELATIONS:
        return None
    lhs, rhs = term.children
    # Distribute over ite: rel(ite(c, t, e), x) -> ite applied at Bool.
    for index, side in ((0, lhs), (1, rhs)):
        if side.kind == TermKind.ITE:
            cond, then, orelse = side.children
            if index == 0:
                then_rel = Term(term.kind, term.sort, (then, rhs))
                else_rel = Term(term.kind, term.sort, (orelse, rhs))
            else:
                then_rel = Term(term.kind, term.sort, (lhs, then))
                else_rel = Term(term.kind, term.sort, (lhs, orelse))
            return And(Implies(cond, then_rel), Implies(Not(cond), else_rel))
    if lhs.is_const() and rhs.is_const():
        if term.kind == TermKind.EQ:
            return TRUE if lhs.value == rhs.value else FALSE
        if term.kind == TermKind.LE:
            return TRUE if lhs.value <= rhs.value else FALSE  # type: ignore[operator]
        return TRUE if lhs.value < rhs.value else FALSE  # type: ignore[operator]
    if lhs is rhs:
        return FALSE if term.kind == TermKind.LT else TRUE
    # Domain-aware folding for var-vs-const atoms.
    var, const, flipped = None, None, False
    if lhs.is_var() and rhs.is_const():
        var, const = lhs, rhs
    elif rhs.is_var() and lhs.is_const():
        var, const, flipped = rhs, lhs, True
    if var is None or const is None:
        return None
    domain = var.value_domain()
    value = const.value
    if term.kind == TermKind.EQ:
        if value not in domain:
            return FALSE
        if len(domain) == 1:
            return TRUE
        return None
    lo, hi = domain[0], domain[-1]
    if term.kind == TermKind.LE:
        if not flipped:  # var <= value
            if value >= hi:  # type: ignore[operator]
                return TRUE
            if value < lo:  # type: ignore[operator]
                return FALSE
        else:  # value <= var
            if value <= lo:  # type: ignore[operator]
                return TRUE
            if value > hi:  # type: ignore[operator]
                return FALSE
        return None
    # LT
    if not flipped:  # var < value
        if value > hi:  # type: ignore[operator]
            return TRUE
        if value <= lo:  # type: ignore[operator]
            return FALSE
    else:  # value < var
        if value < lo:  # type: ignore[operator]
            return TRUE
        if value >= hi:  # type: ignore[operator]
            return FALSE
    return None


def _flatten(term: Term) -> Optional[Term]:
    if term.kind not in (TermKind.AND, TermKind.OR):
        return None
    if not any(child.kind == term.kind for child in term.children):
        return None
    flat: List[Term] = []
    for child in term.children:
        if child.kind == term.kind:
            flat.extend(child.children)
        else:
            flat.append(child)
    rebuild = And if term.kind == TermKind.AND else Or
    return rebuild(*flat)


def _absorption(term: Term) -> Optional[Term]:
    if term.kind not in (TermKind.AND, TermKind.OR):
        return None
    dual = TermKind.OR if term.kind == TermKind.AND else TermKind.AND
    members = set(term.children)
    kept: List[Term] = []
    changed = False
    for child in term.children:
        if child.kind == dual and any(grand in members for grand in child.children):
            changed = True
            continue
        kept.append(child)
    if not changed:
        return None
    rebuild = And if term.kind == TermKind.AND else Or
    return rebuild(*kept)


def _equality_propagation(term: Term) -> Optional[Term]:
    """Within a conjunction, ``v = c`` substitutes ``c`` for ``v``
    in every *other* conjunct.

    This is the workhorse rule for seed-specification reduction: once
    the concrete rest-of-network values are asserted as equalities,
    this rule plugs them in everywhere and the constant-folding rules
    collapse the result.
    """
    if term.kind != TermKind.AND:
        return None
    bindings: Dict[Term, Term] = {}
    for child in term.children:
        if child.kind != TermKind.EQ:
            continue
        lhs, rhs = child.children
        if lhs.is_var() and rhs.is_const() and lhs not in bindings:
            bindings[lhs] = rhs
        elif rhs.is_var() and lhs.is_const() and rhs not in bindings:
            bindings[rhs] = lhs
    if not bindings:
        return None
    changed = False
    new_children: List[Term] = []
    for child in term.children:
        # Keep the defining equality itself; substitute in the rest.
        if child.kind == TermKind.EQ:
            lhs, rhs = child.children
            if (lhs.is_var() and bindings.get(lhs) is rhs) or (
                rhs.is_var() and bindings.get(rhs) is lhs
            ):
                new_children.append(child)
                continue
        replaced = child.substitute(bindings)
        if replaced is not child:
            changed = True
        new_children.append(replaced)
    if not changed:
        return None
    return And(*new_children)


REFERENCE_RULES: Tuple[ReferenceRule, ...] = (
    ReferenceRule("not-const", "!true -> false; !false -> true", _not_const),
    ReferenceRule("double-negation", "!!a -> a", _double_negation),
    ReferenceRule("and-identity", "a & true -> a", _and_identity),
    ReferenceRule("and-annihilate", "a & false -> false", _and_annihilate),
    ReferenceRule("or-identity", "a | false -> a", _or_identity),
    ReferenceRule("or-annihilate", "a | true -> true", _or_annihilate),
    ReferenceRule("idempotence", "a & a -> a; a | a -> a", _idempotence),
    ReferenceRule("complement", "a & !a -> false; a | !a -> true", _complement),
    ReferenceRule("implies-elim", "false -> a = true (and friends)", _implies_elim),
    ReferenceRule("iff-elim", "true <-> a = a (and friends)", _iff_elim),
    ReferenceRule("ite-fold", "ite(true,a,b) -> a; ite(c,a,a) -> a", _ite_fold),
    ReferenceRule("relation-fold", "constant/domain folding of =, <=, <", _relation_fold),
    ReferenceRule("flatten", "(a & b) & c -> a & b & c", _flatten),
    ReferenceRule("absorption", "a & (a | b) -> a", _absorption),
    ReferenceRule("equality-propagation", "v = c propagates within conjunctions", _equality_propagation),
)

REFERENCE_RULES_BY_NAME: Dict[str, ReferenceRule] = {rule.name: rule for rule in REFERENCE_RULES}

assert len(REFERENCE_RULES) == 15, "the paper specifies exactly 15 simplification rules"


class ReferenceEngine:
    """Applies a rule set bottom-up to a global fixpoint.

    Instances are reusable; the normal-form cache is keyed per engine
    so that engines configured with different rule subsets (for the
    ablation study) never share results.
    """

    def __init__(
        self,
        rules: Optional[Iterable[ReferenceRule]] = None,
        max_passes: int = 10_000,
        governor: Optional[Governor] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.rules: Tuple[ReferenceRule, ...] = tuple(rules) if rules is not None else REFERENCE_RULES
        self.max_passes = max_passes
        self.governor = governor
        self.obs = obs
        self._cache: Dict[Term, Term] = {}

    def simplify(self, term: Term, stats: Optional[RewriteStats] = None) -> Term:
        """Return the normal form of ``term`` under this engine's rules."""
        if stats is not None:
            stats.input_size = term.size()
        result = self._normalize(term, stats, depth=0)
        if stats is not None:
            stats.output_size = result.size()
        return result

    def _normalize(self, term: Term, stats: Optional[RewriteStats], depth: int) -> Term:
        cached = self._cache.get(term)
        if cached is not None:
            if self.obs is not None:
                self.obs.count("rewrite.cache_hits")
            return cached
        current = term
        for _ in range(self.max_passes):
            if current.children:
                new_children = tuple(
                    self._normalize(child, stats, depth + 1) for child in current.children
                )
                if new_children != current.children:
                    current = Term(
                        current.kind, current.sort, new_children, current.payload, current.domain
                    )
            rewritten = self._apply_once(current, stats)
            if rewritten is None:
                break
            current = rewritten
        else:  # pragma: no cover - safety valve
            raise RuntimeError(f"rewriting did not converge within {self.max_passes} passes")
        if stats is not None:
            stats.passes += 1
        self._cache[term] = current
        self._cache[current] = current
        return current

    def _apply_once(self, term: Term, stats: Optional[RewriteStats]) -> Optional[Term]:
        for rule in self.rules:
            rewritten = rule.apply(term)
            if rewritten is not None and rewritten is not term:
                if self.governor is not None:
                    self.governor.checkpoint("rewrite")
                if self.obs is not None:
                    self.obs.count("rewrite.steps")
                    self.obs.count(f"rewrite.rule.{rule.name}")
                if stats is not None:
                    stats.record(rule.name)
                return rewritten
        return None
