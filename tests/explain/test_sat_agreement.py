"""The SAT encoding agrees with simulation-based projection.

Projection decides each hole assignment of a question by filling the
sketch and simulating the converged network; the synthesis encoding
decides the same assignment symbolically.  The two are independent
implementations of one semantics, so on every case-study question they
must agree: each assignment projection accepts is satisfiable under
the encoding of the job's own sketch (restricted to the job's
requirement), and each assignment it rejects is unsatisfiable.

Every job is explained without shared caches and checked against a
fresh, unshared encoding, so nothing the farm memoizes can make the two
sides agree by construction.  One incremental :class:`TermSession` per
job answers all of that job's assignments as assumption solves.
"""

import pytest

from repro.explain import ExplanationEngine, ExplanationStatus
from repro.farm import enumerate_jobs
from repro.scenarios import SCENARIOS
from repro.smt import TermSession
from repro.synthesis.encoder import Encoder

CASE_STUDIES = ("scenario1", "scenario2", "scenario3", "campus")


def _selectors(session, encoding, assignment):
    """Assumption literals pinning every hole the encoding constrains."""
    literals = []
    for name in sorted(assignment):
        try:
            variable = encoding.holes.variable(name)
        except KeyError:
            continue  # no requirement candidate traverses this hole's line
        value = assignment[name]
        pin = int(value) if variable.sort.is_int() else str(value)
        literal = session.selector(variable, pin)
        if literal is not None:
            literals.append(literal)
    return literals


def disagreements(config, specification, job):
    """(assignment, projected verdict) pairs the encoding contradicts,
    and the number of solves made; ``None`` when the job has no exact
    projection to check."""
    explanation = job.run(ExplanationEngine(config, specification))
    projected = explanation.projected
    if explanation.status is not ExplanationStatus.EXACT or projected is None:
        return None
    sketch, _ = job.symbolize(config)
    encoding = Encoder(sketch, specification.restricted_to(job.requirement)).encode()
    session = TermSession(encoding.constraint)
    wrong = []
    for expected, assignments in (
        (True, projected.acceptable),
        (False, projected.rejected),
    ):
        for assignment in assignments:
            result = session.solve(_selectors(session, encoding, assignment))
            if result.satisfiable != expected:
                wrong.append((dict(assignment), expected))
    return wrong, projected.total_assignments


@pytest.mark.parametrize("per_line", [False, True], ids=["router", "line"])
@pytest.mark.parametrize("name", CASE_STUDIES)
def test_encoding_agrees_with_projection(name, per_line):
    scenario = SCENARIOS[name]()
    config, specification = scenario.paper_config, scenario.specification
    solves = 0
    for job in enumerate_jobs(config, specification, per_line=per_line):
        checked = disagreements(config, specification, job)
        if checked is None:
            continue
        wrong, made = checked
        solves += made
        for assignment, expected in wrong:
            verdict = "accepts" if expected else "rejects"
            pytest.fail(
                f"{job.job_id}: projection {verdict} {assignment}, "
                f"the SAT encoding does not"
            )
    assert solves > 0, f"{name}: no projected verdict was checked"
