"""The encoder's ``encode.*`` counters, tallied per ``encode`` call, add
up to exactly what counting every event into ``obs`` gave.

``encode.steps``, ``encode.candidates`` and ``encode.cache_hits`` are
kept in a dict per :meth:`Encoder.encode` call and counted into
``obs`` once, when the call returns or raises.  No span opens inside an
encode, so the stage they are attributed to cannot change either.  The
reference below counts every event as it happens; over every
case-study job (per-router and per-line), ungoverned and with a budget
that runs out mid-encode, both must leave the same counters and the
same governor accounting.
"""

import pytest

from repro.farm.job import enumerate_jobs
from repro.obs import Instrumentation
from repro.runtime import Governor, ResourceExhausted, WorkBudget
from repro.scenarios import scenario1, scenario2, scenario3
from repro.scenarios.campus import campus_scenario
from repro.synthesis import Encoder

SCENARIOS = [scenario1, scenario2, scenario3, campus_scenario]


class _PerEventEncoder(Encoder):
    """Counts every event straight into ``obs``."""

    def _tally(self, name: str) -> None:
        if self.obs is not None:
            self.obs.count(name)


def _encode(encoder_class, sketch, spec, budget=None):
    obs = Instrumentation()
    governor = Governor(budget=budget)
    obs.watch(governor)
    encoder = encoder_class(sketch, spec, governor=governor, obs=obs)
    with obs.span("seed"):
        try:
            outcome = encoder.encode().constraint
        except ResourceExhausted as exc:
            outcome = (str(exc), exc.stage, exc.kind)
    return outcome, dict(obs.metrics.counters), governor.accounting()


@pytest.mark.parametrize("per_line", [False, True], ids=["router", "line"])
@pytest.mark.parametrize("build", SCENARIOS, ids=lambda build: build.__name__)
def test_counters_match_per_event_counting(build, per_line):
    scenario = build()
    config, specification = scenario.paper_config, scenario.specification
    jobs = enumerate_jobs(config, specification, per_line=per_line)
    assert jobs
    for job in jobs:
        sketch, _ = job.symbolize(config)
        spec = (
            specification.restricted_to(job.requirement)
            if job.requirement is not None
            else specification
        )
        got = _encode(Encoder, sketch, spec)
        want = _encode(_PerEventEncoder, sketch, spec)
        assert got == want
        counters = got[1]
        assert counters["seed:encode.steps"] == counters["seed:checkpoint.encode"]
        assert counters["seed:encode.candidates"] > 0
        # A budget that runs out halfway: the partial tallies still land.
        limit = counters["seed:encode.steps"] // 2
        got = _encode(Encoder, sketch, spec, WorkBudget(candidates=limit))
        want = _encode(_PerEventEncoder, sketch, spec, WorkBudget(candidates=limit))
        assert got == want
        assert isinstance(got[0], tuple), "the budget must run out mid-encode"
        assert got[1]["seed:encode.steps"] == limit
