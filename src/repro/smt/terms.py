"""Hash-consed term language for the constraint substrate.

This module implements the core expression AST used throughout the
reproduction.  The published system relies on z3 for constraint
manipulation; since the explanation technique only needs a *syntactic*
term representation (for the rewrite rules of Nazari et al. [19]) plus
a decision procedure over small finite domains, we implement both from
scratch.

Terms are immutable and hash-consed: structurally equal terms are the
same Python object, which makes equality checks O(1) and lets the
rewrite engine memoize aggressively.

Sorts
-----
* ``BOOL``   -- booleans.
* ``INT``    -- mathematical integers.  Variables carry an explicit
  finite *domain* (a sorted tuple of admissible values) because the
  NetComplete-style BGP encoding only ever quantifies over small
  finite ranges (local preferences, community indices, action codes).
* ``EnumSort`` -- named finite enumerations (e.g. route-map actions).

Term kinds
----------
``const``, ``var``, ``not``, ``and``, ``or``, ``implies``, ``iff``,
``eq``, ``le``, ``lt``, ``ite``.

Use :mod:`repro.smt.builders` for the ergonomic construction API; this
module deliberately exposes only the raw representation.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple, Union

__all__ = [
    "Sort",
    "BOOL",
    "INT",
    "EnumSort",
    "Term",
    "TermKind",
    "Value",
    "SortError",
]

Value = Union[bool, int, str]

#: Marks a subterm not yet evaluated in :meth:`Term.evaluate`'s memo.
_UNSET = object()


class SortError(TypeError):
    """Raised when terms of incompatible sorts are combined."""


class Sort:
    """A sort (type) of a term.

    The two singleton instances :data:`BOOL` and :data:`INT` cover the
    built-in sorts; finite enumerations are created via
    :class:`EnumSort`.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"Sort({self.name})"

    def __str__(self) -> str:
        return self.name

    def is_bool(self) -> bool:
        return self is BOOL

    def is_int(self) -> bool:
        return self is INT

    def is_enum(self) -> bool:
        return isinstance(self, EnumSort)


class EnumSort(Sort):
    """A named finite enumeration sort.

    >>> action = EnumSort("Action", ("permit", "deny"))
    >>> action.values
    ('permit', 'deny')
    """

    __slots__ = ("values", "_index")

    _registry: dict = {}

    def __new__(cls, name: str, values: Iterable[str] = ()) -> "EnumSort":
        values = tuple(values)
        key = (name, values)
        existing = cls._registry.get(key)
        if existing is not None:
            return existing
        obj = object.__new__(cls)
        cls._registry[key] = obj
        return obj

    def __init__(self, name: str, values: Iterable[str] = ()) -> None:
        values = tuple(values)
        if getattr(self, "values", None) is not None and self.values == values:
            return  # already initialised (hash-consed)
        if not values:
            raise ValueError(f"enum sort {name!r} needs at least one value")
        if len(set(values)) != len(values):
            raise ValueError(f"enum sort {name!r} has duplicate values")
        super().__init__(name)
        self.values = values
        self._index = {value: i for i, value in enumerate(values)}

    def index_of(self, value: str) -> int:
        """Position of ``value`` within the enumeration order."""
        try:
            return self._index[value]
        except KeyError:
            raise ValueError(f"{value!r} is not a value of enum {self.name}") from None

    def __contains__(self, value: object) -> bool:
        return value in self._index


BOOL = Sort("Bool")
INT = Sort("Int")


class TermKind:
    """Enumeration of term node kinds (plain strings, grouped here)."""

    CONST = "const"
    VAR = "var"
    NOT = "not"
    AND = "and"
    OR = "or"
    IMPLIES = "implies"
    IFF = "iff"
    EQ = "eq"
    LE = "le"
    LT = "lt"
    ITE = "ite"
    PLUS = "plus"

    BOOLEAN_CONNECTIVES = frozenset({NOT, AND, OR, IMPLIES, IFF})
    ATOM_RELATIONS = frozenset({EQ, LE, LT})


class Term:
    """An immutable, hash-consed term.

    Do not instantiate directly -- use the factory classmethods or,
    preferably, :mod:`repro.smt.builders`.

    Attributes
    ----------
    kind:
        One of the :class:`TermKind` strings.
    sort:
        The :class:`Sort` of the term.
    children:
        Child terms (empty for constants and variables).
    payload:
        Kind-specific extra data: the Python value for constants, the
        variable name for variables, the domain tuple for integer
        variables (stored separately in :attr:`domain`).

    Hash-consing makes structural equality identity, so terms keep
    :class:`object`'s ``__eq__`` and ``__hash__`` (C-level, address
    based): dicts and sets keyed on terms pay no Python call per lookup.
    """

    __slots__ = ("kind", "sort", "children", "payload", "domain", "_free", "_size")

    _table: dict = {}

    def __new__(
        cls,
        kind: str,
        sort: Sort,
        children: Tuple["Term", ...] = (),
        payload: Optional[Value] = None,
        domain: Optional[Tuple[int, ...]] = None,
    ) -> "Term":
        key = (kind, sort, children, payload, domain)
        existing = cls._table.get(key)
        if existing is not None:
            return existing
        obj = object.__new__(cls)
        obj.kind = kind
        obj.sort = sort
        obj.children = children
        obj.payload = payload
        obj.domain = domain
        obj._free = None
        obj._size = None
        cls._table[key] = obj
        return obj

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    @classmethod
    def const(cls, value: Value, sort: Optional[Sort] = None) -> "Term":
        """A constant term.  Sort is inferred for bool/int values."""
        if sort is None:
            if isinstance(value, bool):
                sort = BOOL
            elif isinstance(value, int):
                sort = INT
            else:
                raise SortError(f"cannot infer sort of constant {value!r}; pass sort=")
        if sort.is_bool() and not isinstance(value, bool):
            raise SortError(f"boolean constant expected, got {value!r}")
        if sort.is_int() and (isinstance(value, bool) or not isinstance(value, int)):
            raise SortError(f"integer constant expected, got {value!r}")
        if sort.is_enum() and value not in sort:  # type: ignore[operator]
            raise SortError(f"{value!r} is not a value of {sort}")
        return cls(TermKind.CONST, sort, (), value)

    @classmethod
    def var(
        cls,
        name: str,
        sort: Sort,
        domain: Optional[Iterable[int]] = None,
    ) -> "Term":
        """A variable term.

        Integer variables must carry a finite ``domain``; boolean and
        enum variables must not (their domain is implied by the sort).
        """
        if not name:
            raise ValueError("variable name must be non-empty")
        if sort.is_int():
            if domain is None:
                raise SortError(f"integer variable {name!r} requires a finite domain")
            dom = tuple(sorted(set(int(v) for v in domain)))
            if not dom:
                raise SortError(f"integer variable {name!r} has an empty domain")
            return cls(TermKind.VAR, sort, (), name, dom)
        if domain is not None:
            raise SortError(f"only integer variables carry explicit domains ({name!r})")
        return cls(TermKind.VAR, sort, (), name)

    # ------------------------------------------------------------------
    # Inspection helpers
    # ------------------------------------------------------------------

    def is_const(self) -> bool:
        return self.kind == TermKind.CONST

    def is_var(self) -> bool:
        return self.kind == TermKind.VAR

    def is_true(self) -> bool:
        return self.kind == TermKind.CONST and self.payload is True

    def is_false(self) -> bool:
        return self.kind == TermKind.CONST and self.payload is False

    def is_atom(self) -> bool:
        """An atom is a boolean leaf from the SAT solver's viewpoint."""
        if not self.sort.is_bool():
            return False
        return self.kind in (TermKind.CONST, TermKind.VAR) or self.kind in TermKind.ATOM_RELATIONS

    @property
    def name(self) -> str:
        """The name of a variable term."""
        if self.kind != TermKind.VAR:
            raise ValueError(f"not a variable: {self!r}")
        assert isinstance(self.payload, str)
        return self.payload

    @property
    def value(self) -> Value:
        """The Python value of a constant term."""
        if self.kind != TermKind.CONST:
            raise ValueError(f"not a constant: {self!r}")
        assert self.payload is not None
        return self.payload

    def value_domain(self) -> Tuple[Value, ...]:
        """All values this (variable) term may take."""
        if self.kind != TermKind.VAR:
            raise ValueError(f"not a variable: {self!r}")
        if self.sort.is_bool():
            return (False, True)
        if self.sort.is_int():
            assert self.domain is not None
            return self.domain
        assert isinstance(self.sort, EnumSort)
        return self.sort.values

    def free_variables(self) -> frozenset:
        """The set of variable terms occurring in this term (memoized)."""
        if self._free is None:
            if self.kind == TermKind.VAR:
                self._free = frozenset((self,))
            elif not self.children:
                self._free = frozenset()
            else:
                acc: frozenset = frozenset()
                for child in self.children:
                    acc |= child.free_variables()
                self._free = acc
        return self._free

    def size(self) -> int:
        """Number of AST nodes (memoized).  Used as the paper's
        "constraint size" metric."""
        if self._size is None:
            self._size = 1 + sum(child.size() for child in self.children)
        return self._size

    def depth(self) -> int:
        """Height of the AST."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def iter_subterms(self) -> Iterator["Term"]:
        """Yield every subterm exactly once, children before parents."""
        seen = set()
        stack = [(self, False)]
        while stack:
            term, expanded = stack.pop()
            if term in seen:
                continue
            if expanded:
                seen.add(term)
                yield term
            else:
                stack.append((term, True))
                for child in term.children:
                    if child not in seen:
                        stack.append((child, False))

    def atoms(self) -> frozenset:
        """All boolean atoms (vars and relations) under this term."""
        return frozenset(t for t in self.iter_subterms() if t.is_atom() and not t.is_const())

    def conjuncts(self) -> Tuple["Term", ...]:
        """Children if this is a conjunction, else the term itself."""
        if self.kind == TermKind.AND:
            return self.children
        return (self,)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, Value]) -> Value:
        """Evaluate under a total assignment ``{var name: value}``.

        Raises ``KeyError`` if a free variable is missing from the
        assignment, and :class:`SortError` on ill-sorted input values.

        Terms are hash-consed DAGs, so a shared subterm is evaluated
        once per call.  Connectives short-circuit left to right, and
        every subterm is visited in the order a tree walk would visit
        it, so the same inputs raise the same error.
        """
        return self._evaluate(assignment, {})

    def _evaluate(self, assignment: Mapping[str, Value], memo: Dict["Term", Any]) -> Any:
        kind = self.kind
        if kind == TermKind.CONST:
            return self.payload
        value = memo.get(self, _UNSET)
        if value is not _UNSET:
            return value
        children = self.children
        if kind == TermKind.VAR:
            value = assignment[self.payload]  # type: ignore[index]
            self._check_assignable(value)
        elif kind == TermKind.NOT:
            value = not children[0]._evaluate(assignment, memo)
        elif kind == TermKind.AND:
            value = all(child._evaluate(assignment, memo) for child in children)
        elif kind == TermKind.OR:
            value = any(child._evaluate(assignment, memo) for child in children)
        elif kind == TermKind.IMPLIES:
            lhs, rhs = children
            value = (not lhs._evaluate(assignment, memo)) or bool(
                rhs._evaluate(assignment, memo)
            )
        elif kind == TermKind.IFF:
            lhs, rhs = children
            value = bool(lhs._evaluate(assignment, memo)) == bool(
                rhs._evaluate(assignment, memo)
            )
        elif kind == TermKind.EQ:
            lhs, rhs = children
            value = lhs._evaluate(assignment, memo) == rhs._evaluate(assignment, memo)
        elif kind == TermKind.LE:
            lhs, rhs = children
            value = lhs._evaluate(assignment, memo) <= rhs._evaluate(assignment, memo)
        elif kind == TermKind.LT:
            lhs, rhs = children
            value = lhs._evaluate(assignment, memo) < rhs._evaluate(assignment, memo)
        elif kind == TermKind.ITE:
            cond, then, orelse = children
            branch = then if cond._evaluate(assignment, memo) else orelse
            value = branch._evaluate(assignment, memo)
        elif kind == TermKind.PLUS:
            value = sum(child._evaluate(assignment, memo) for child in children)
        else:
            raise AssertionError(f"unhandled kind {kind}")
        memo[self] = value
        return value

    def _check_assignable(self, value: Value) -> None:
        if self.sort.is_bool() and not isinstance(value, bool):
            raise SortError(f"{self.payload} is boolean, got {value!r}")
        if self.sort.is_int() and (isinstance(value, bool) or not isinstance(value, int)):
            raise SortError(f"{self.payload} is integer, got {value!r}")
        if self.sort.is_enum() and value not in self.sort:  # type: ignore[operator]
            raise SortError(f"{self.payload} is {self.sort}, got {value!r}")

    # ------------------------------------------------------------------
    # Substitution
    # ------------------------------------------------------------------

    def substitute(self, mapping: Mapping["Term", "Term"]) -> "Term":
        """Simultaneously replace subterms per ``mapping`` (bottom-up).

        Keys are usually variables but may be arbitrary subterms.
        """
        if not mapping:
            return self
        cache: dict = {}

        def walk(term: "Term") -> "Term":
            hit = mapping.get(term)
            if hit is not None:
                if hit.sort is not term.sort:
                    raise SortError(f"substituting {term} ({term.sort}) with {hit} ({hit.sort})")
                return hit
            cached = cache.get(term)
            if cached is not None:
                return cached
            if not term.children:
                cache[term] = term
                return term
            new_children = tuple(walk(child) for child in term.children)
            if new_children == term.children:
                result = term
            else:
                result = Term(term.kind, term.sort, new_children, term.payload, term.domain)
            cache[term] = result
            return result

        return walk(self)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        from .printer import to_infix  # local import to avoid a cycle

        return f"Term<{to_infix(self)}>"


def fresh_name(prefix: str, taken: Iterable[str]) -> str:
    """Return ``prefix`` or ``prefix.N`` such that it is not in ``taken``."""
    taken_set = set(taken)
    if prefix not in taken_set:
        return prefix
    for i in itertools.count(1):
        candidate = f"{prefix}.{i}"
        if candidate not in taken_set:
            return candidate
    raise AssertionError("unreachable")
