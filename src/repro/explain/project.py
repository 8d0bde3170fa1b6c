"""Projection of the seed specification onto the symbolized variables.

The simplified seed still mentions low-level encoding variables (the
``best|...`` selection booleans) -- the paper's Section 4(3) observes
exactly this.  To obtain a constraint purely over the device's
variables (the shape of Figure 6c), we *project*: enumerate every
assignment of the symbolized holes, decide for each whether the global
specification holds, and return the acceptable set as a DNF term.

Deciding one assignment is cheap and exact: fill the sketch, run the
concrete control-plane simulation, evaluate the (ground) requirement
terms under the hole values plus the simulated selection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..bgp.config import NetworkConfig
from ..bgp.simulation import ConvergenceError, simulate
from ..bgp.sketch import Hole
from ..obs import Instrumentation
from ..runtime import Governor, ReproError
from ..smt import And, Eq, FALSE, Or, Term, simplify
from .seed import SeedSpecification

__all__ = ["ProjectionError", "ProjectedSpec", "project", "reclassify"]


class ProjectionError(ReproError, RuntimeError):
    """The hole space is too large to enumerate."""


@dataclass
class ProjectedSpec:
    """The acceptable region of the symbolized variables.

    ``acceptable`` lists every hole assignment (by hole name, in domain
    objects) under which the network satisfies the specification;
    ``term`` is the equivalent DNF constraint over the hole variables,
    simplified with the rewrite engine.  ``envs`` caches, per
    assignment key, the full evaluation environment (hole values plus
    simulated selection values) so the lifting search can evaluate
    candidate statements without re-simulating.
    """

    holes: Dict[str, Hole]
    acceptable: Tuple[Dict[str, object], ...]
    rejected: Tuple[Dict[str, object], ...]
    term: Term
    envs: Dict[Tuple[Tuple[str, str], ...], Dict[str, object]] = field(default_factory=dict)

    @property
    def total_assignments(self) -> int:
        return len(self.acceptable) + len(self.rejected)

    @property
    def is_unconstrained(self) -> bool:
        """Every assignment works: the device is irrelevant to the
        requirement (the paper's Scenario 3: "R3 can do anything")."""
        return not self.rejected

    @property
    def is_unsatisfiable(self) -> bool:
        return not self.acceptable


def _iter_assignments(holes: Mapping[str, Hole]):
    names = sorted(holes)
    domains = [holes[name].domain for name in names]
    for combo in itertools.product(*domains):
        yield dict(zip(names, combo))


def project(
    seed: SeedSpecification,
    sketch: NetworkConfig,
    limit: int = 4096,
    governor: Optional[Governor] = None,
    obs: Optional[Instrumentation] = None,
    recorder=None,
    sim_cache=None,
) -> ProjectedSpec:
    """Enumerate hole assignments and classify each as acceptable.

    ``sim_cache`` plugs in a cross-question
    :class:`~repro.explain.family.SimulationCache`; cached outcomes are
    keyed by the rendered filled configuration and replay their
    recorded transfers, so attaching one never changes a verdict or a
    read-set.

    Raises
    ------
    ProjectionError
        If the hole space exceeds ``limit`` (the paper's remedy:
        "generating and inspecting sub-specifications one variable at
        a time was an effective strategy").
    """
    total = 1
    for hole in seed.holes.values():
        total *= len(hole.domain)
    if total > limit:
        raise ProjectionError(
            f"{total} assignments exceed the projection limit of {limit}; "
            "symbolize fewer fields at a time"
        )

    requirement_terms: List[Term] = []
    for name, terms in seed.encoding.groups.items():
        if name.startswith("requirement:"):
            requirement_terms.extend(terms)
    requirement = And(*requirement_terms)

    acceptable: List[Dict[str, object]] = []
    rejected: List[Dict[str, object]] = []
    envs: Dict[Tuple[Tuple[str, str], ...], Dict[str, object]] = {}
    for assignment in _iter_assignments(seed.holes):
        if governor is not None:
            governor.checkpoint("project")
        if obs is not None:
            obs.count("project.assignments")
        ok, env = _classify_assignment(
            requirement, assignment, sketch, seed, governor=governor, obs=obs,
            recorder=recorder, sim_cache=sim_cache,
        )
        key = tuple(sorted((name, str(value)) for name, value in assignment.items()))
        if env is not None:
            envs[key] = env
        if ok:
            acceptable.append(assignment)
        else:
            rejected.append(assignment)

    term = _as_dnf(seed, acceptable, rejected)
    return ProjectedSpec(
        holes=dict(seed.holes),
        acceptable=tuple(acceptable),
        rejected=tuple(rejected),
        term=term,
        envs=envs,
    )


def reclassify(
    seed: SeedSpecification,
    projected: ProjectedSpec,
    forced_acceptances=frozenset(),
    forced_rejections=frozenset(),
) -> ProjectedSpec:
    """``projected`` with selected assignments moved across the boundary.

    ``forced_acceptances`` / ``forced_rejections`` are assignment keys
    (the sorted ``(name, str(value))`` tuples used throughout lifting);
    every listed assignment lands on the forced side regardless of its
    original classification, and the DNF term is rebuilt to match.
    This is the audit loop's re-lift seam: counterexamples refuting a
    subspecification become corrections to the acceptable region the
    next lift runs against.
    """
    sides: Dict[Tuple[Tuple[str, str], ...], bool] = {}
    originals: Dict[Tuple[Tuple[str, str], ...], Dict[str, object]] = {}
    for ok, group in ((True, projected.acceptable), (False, projected.rejected)):
        for assignment in group:
            key = tuple(
                sorted((name, str(value)) for name, value in assignment.items())
            )
            sides[key] = ok
            originals[key] = assignment
    for key in forced_acceptances:
        if key in sides:
            sides[key] = True
    for key in forced_rejections:
        if key in sides:
            sides[key] = False
    acceptable: List[Dict[str, object]] = []
    rejected: List[Dict[str, object]] = []
    for assignment in _iter_assignments(projected.holes):
        key = tuple(
            sorted((name, str(value)) for name, value in assignment.items())
        )
        if key not in sides:
            continue
        (acceptable if sides[key] else rejected).append(originals[key])
    term = _as_dnf(seed, acceptable, rejected)
    return ProjectedSpec(
        holes=dict(projected.holes),
        acceptable=tuple(acceptable),
        rejected=tuple(rejected),
        term=term,
        envs=dict(projected.envs),
    )


def _classify_assignment(
    requirement: Term,
    assignment: Dict[str, object],
    sketch: NetworkConfig,
    seed: SeedSpecification,
    governor: Optional[Governor] = None,
    obs: Optional[Instrumentation] = None,
    recorder=None,
    sim_cache=None,
):
    """(acceptable?, evaluation env) for one hole assignment.

    Non-converging assignments are rejected and yield no environment.
    """
    filled = sketch.fill(assignment)
    try:
        if sim_cache is not None:
            outcome = sim_cache.simulate(
                filled,
                link_cost=seed.encoding.link_cost,
                ibgp=seed.encoding.ibgp,
                governor=governor,
                obs=obs,
                recorder=recorder,
            )
        else:
            outcome = simulate(
                filled,
                link_cost=seed.encoding.link_cost,
                ibgp=seed.encoding.ibgp,
                governor=governor,
                obs=obs,
                recorder=recorder,
            )
    except ConvergenceError:
        return False, None
    env: Dict[str, object] = {}
    for name, value in assignment.items():
        variable = seed.encoding.holes.variable(name)
        env[name] = value if variable.sort.is_int() else str(value)
    # Valuations of the selection variables come from the simulation.
    for variable_name, router, prefix_text, hops in seed.encoding.selection_lookups():
        selected = outcome.rib.get((router, prefix_text))
        env[variable_name] = selected is not None and selected.path == hops
    return bool(requirement.evaluate(env)), env


def _as_dnf(
    seed: SeedSpecification,
    acceptable: List[Dict[str, object]],
    rejected: List[Dict[str, object]],
) -> Term:
    """The acceptable set as a minimized constraint over hole vars.

    Cubes are merged Quine-McCluskey style, generalized to the
    multi-valued domains: whenever a group of cubes agrees on all but
    one variable and that variable's values cover its whole domain, the
    variable is dropped.  This keeps Figure 6c-style outputs factored
    (``Var_Action = permit`` instead of a 4-cube enumeration).
    """
    if not acceptable:
        return FALSE
    if not rejected:
        # Every assignment works: the constraint is vacuous (the
        # paper's Scenario 3 "empty subspecification" case).
        from ..smt import TRUE

        return TRUE
    names = sorted(acceptable[0])
    domains = {name: seed.holes[name].domain for name in names}
    cubes = {tuple((name, str(assignment[name])) for name in names)
             for assignment in acceptable}
    cubes = _merge_cubes(cubes, names, domains)
    terms: List[Term] = []
    for cube in sorted(cubes):
        literals: List[Term] = []
        for name, value in cube:
            variable = seed.encoding.holes.variable(name)
            if variable.sort.is_int():
                literals.append(Eq(variable, int(value)))
            else:
                literals.append(Eq(variable, value))
        terms.append(And(*literals))
    return simplify(Or(*terms))


def _merge_cubes(cubes, names, domains):
    """Drop a variable from cube groups that cover its full domain.

    Cubes are frozen tuples of (name, str(value)) literals; a cube may
    omit variables that were already merged away.
    """
    current = {frozenset(cube) for cube in cubes}
    changed = True
    while changed:
        changed = False
        for name in names:
            domain_values = {str(value) for value in domains[name]}
            groups: Dict[frozenset, set] = {}
            for cube in current:
                literal = next((lit for lit in cube if lit[0] == name), None)
                if literal is None:
                    continue
                rest = frozenset(lit for lit in cube if lit[0] != name)
                groups.setdefault(rest, set()).add(literal[1])
            for rest, values in groups.items():
                if values == domain_values:
                    for value in values:
                        current.discard(rest | {(name, value)})
                    current.add(rest)
                    changed = True
    # Remove cubes subsumed by more general ones.
    minimal = set()
    for cube in sorted(current, key=len):
        if not any(other <= cube for other in minimal):
            minimal.add(cube)
    return {tuple(sorted(cube)) for cube in minimal}
