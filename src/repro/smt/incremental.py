"""Assumption-based incremental SAT sessions.

Sibling queries in this codebase differ only in a handful of literals:
deletion-based MUS extraction re-asks the same conjunction minus one
conjunct, and checking projection against an encoding asks about the
same encoded formula under different hole assignments.  Solving
each variant from a cold solver throws away everything the previous
call learned.

This module keeps one :class:`~repro.smt.sat.SatSolver` alive across
queries instead:

* :class:`IncrementalSession` is the clause-level session -- add
  clauses, then ``solve(assumptions=...)`` repeatedly.  Learned
  clauses, variable activities, and saved phases persist between
  calls, and unsatisfiable calls report a failed-assumption core
  (``SatResult.core``) usable for MUS-style reuse.
* :class:`TermSession` lifts that to the term language: blast and
  CNF-convert a term **once**, then address queries by *(variable,
  value)* selector literals -- the one-hot indicator booleans the
  finite-domain blaster already introduces (``var@value``).  Assuming
  such an indicator pins the variable to the value; a full assignment
  becomes a set of assumption literals, no re-encoding required.

Adding clauses between solves is sound: learned clauses are derived by
resolution from the clause set alone (assumptions enter conflict
analysis as decision literals and end up *inside* learned clauses, not
as side conditions), so strengthening the clause set keeps every
previously learned clause implied.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from ..obs import Instrumentation
from ..runtime import Governor
from .cnf import CnfResult, to_cnf
from .fdblast import BlastResult, blast, indicator_name
from .model import Model
from .sat import SatResult, SatSolver
from .terms import Term, Value

__all__ = ["IncrementalSession", "TermSession"]


class IncrementalSession:
    """A clause-level incremental SAT session.

    Wraps a single :class:`SatSolver` and keeps it alive across
    ``solve`` calls so learned clauses, VSIDS activities, and saved
    phases carry over.  Clauses may be added between solves (the
    formula only ever grows stronger).

    Emits ``smt.session.*`` counters when instrumented:

    * ``smt.session.instances`` -- sessions constructed,
    * ``smt.session.solves`` -- total solve calls,
    * ``smt.session.reuse`` -- solve calls beyond the first per
      session, i.e. solves that reused an existing instance,
    * ``smt.session.learned_kept`` -- learned clauses already retained
      when a reusing solve starts,
    * ``smt.session.cores`` -- UNSAT results carrying a non-empty
      failed-assumption core.
    """

    def __init__(
        self,
        num_vars: int,
        governor: Optional[Governor] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.obs = obs
        self.solves = 0
        self._solver = SatSolver(num_vars, governor=governor, obs=obs)
        if obs is not None:
            obs.count("smt.session.instances")

    def attach_obs(self, obs: Optional[Instrumentation]) -> None:
        """Redirect this session's counters to ``obs``.

        Long-lived sessions outlive the instrumentation bundle of the
        job that created them; re-attaching before each caller's solves
        lands the reuse/core counters in *that* caller's metrics.
        """
        self.obs = obs
        self._solver.obs = obs

    @property
    def num_vars(self) -> int:
        return self._solver.num_vars

    @property
    def learned_clauses(self) -> int:
        """Learned clauses currently retained by the solver."""
        return sum(1 for clause in self._solver.clauses if clause.learned)

    def add_clause(self, literals: Iterable[int]) -> None:
        self._solver.add_clause(literals)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self._solver.add_clause(clause)

    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Solve the current clause set under unit ``assumptions``."""
        learned_kept = self.learned_clauses if self.solves else 0
        result = self._solver.solve(assumptions)
        self.solves += 1
        if self.obs is not None:
            self.obs.count("smt.session.solves")
            if self.solves > 1:
                self.obs.count("smt.session.reuse")
            if learned_kept:
                self.obs.count("smt.session.learned_kept", learned_kept)
            if not result.satisfiable and result.core:
                self.obs.count("smt.session.cores")
        return result


class TermSession:
    """An incremental session over a single blasted term.

    The term is blasted and CNF-converted once at construction; every
    subsequent query is an assumption solve on the same solver.
    Queries address the formula through *selector literals*: the
    DIMACS literal of a boolean variable, or of the one-hot indicator
    ``variable@value`` for a finite-domain variable.
    """

    def __init__(
        self,
        term: Term,
        governor: Optional[Governor] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if not term.sort.is_bool():
            raise ValueError(f"can only build a session over boolean terms, got {term.sort}")
        self.term = term
        self._blasted: BlastResult = blast(term)
        self._cnf: CnfResult = to_cnf(self._blasted.formula)
        self.session = IncrementalSession(self._cnf.num_vars, governor=governor, obs=obs)
        self.session.add_clauses(self._cnf.clauses)

    @property
    def solves(self) -> int:
        return self.session.solves

    def attach_obs(self, obs: Optional[Instrumentation]) -> None:
        """Redirect counters to ``obs``; see
        :meth:`IncrementalSession.attach_obs`."""
        self.session.attach_obs(obs)

    def literal_of(self, name: str) -> Optional[int]:
        """DIMACS id of a named boolean variable, or None if absent."""
        return self._cnf.var_ids.get(name)

    def selector(self, variable: Term, value: Value) -> Optional[int]:
        """The assumption literal pinning ``variable == value``.

        Returns ``None`` when the variable folded away entirely during
        blasting (no atom over it survived): the formula does not
        constrain it, so there is nothing to assume.  The blaster
        introduces all of a variable's indicators together with their
        exactly-one side condition, so a variable is either fully
        addressable or fully absent.
        """
        if variable.sort.is_bool():
            if not isinstance(value, bool):
                raise ValueError(
                    f"boolean variable {variable.name} needs a bool value, got {value!r}"
                )
            var_id = self._cnf.var_ids.get(variable.name)
            if var_id is None:
                return None
            return var_id if value else -var_id
        domain = variable.value_domain()
        if value not in domain:
            raise ValueError(f"{value!r} not in the domain of {variable.name}")
        return self._cnf.var_ids.get(indicator_name(variable, value))

    def assumptions_for(self, assignment: Mapping[Term, Value]) -> List[int]:
        """Selector literals for a (possibly partial) assignment.

        Variables the formula does not constrain contribute nothing.
        Iteration is deterministic (sorted by variable name).
        """
        literals: List[int] = []
        for variable in sorted(assignment, key=lambda v: v.name):
            literal = self.selector(variable, assignment[variable])
            if literal is not None:
                literals.append(literal)
        return literals

    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        return self.session.solve(assumptions)

    def solve_under(self, assignment: Mapping[Term, Value]) -> SatResult:
        """Solve with the formula's variables pinned per ``assignment``."""
        return self.session.solve(self.assumptions_for(assignment))

    def model(self, result: SatResult) -> Optional[Model]:
        """Decode a satisfiable result into a model of the input term."""
        if not result.satisfiable:
            return None
        bool_model = self._cnf.decode(result.assignment)
        assignment = self._blasted.decode(bool_model)
        for variable in self.term.free_variables():
            assignment.setdefault(variable.name, variable.value_domain()[0])
        return Model(assignment)

    def core_names(self, result: SatResult) -> Tuple[str, ...]:
        """Variable names behind a failed-assumption core.

        Maps each core literal back to the boolean variable (or
        indicator) name it selects; Tseitin definition variables never
        appear in assumptions, so every core literal has a name.
        """
        by_id = {var_id: name for name, var_id in self._cnf.var_ids.items()}
        return tuple(by_id[abs(literal)] for literal in result.core if abs(literal) in by_id)
