"""Differential test: the requirements-only oracle against the oracle
it replaced, whose every world was a full ``extract_seed`` encoding
(selection axioms included).

The oracle sets every selection variable from concrete simulation and
never reads the axioms, so dropping them must change nothing: over
every case-study job (per-router and per-line), every probe of its
audit suite -- environment (mutation) probes included -- must get the
same truth verdict, the same evaluation environment and the same
claim from both oracles.
"""

import pytest

from repro.audit import Adjudicator, VERDICT_CONFIRMED
from repro.audit.adjudicator import _default_environment_routers
from repro.audit.oracle import Oracle, _Variant
from repro.audit.suite import generate_suite, renumber_routemaps
from repro.explain import ExplanationEngine
from repro.explain.seed import extract_seed
from repro.farm.job import enumerate_jobs
from repro.scenarios import scenario1, scenario2, scenario3
from repro.scenarios.campus import campus_scenario
from repro.smt import And
from repro.synthesis import Encoder


class _FullSeedOracle(Oracle):
    """The oracle as it was: one full seed encoding per world, with the
    selection lookups read off the encoding's selection variables."""

    def _variant(self, mutation):
        variant = self._variants.get(mutation)
        if variant is None:
            sketch = (
                renumber_routemaps(self.sketch, mutation)
                if mutation is not None
                else self.sketch
            )
            seed = extract_seed(
                sketch,
                self.spec,
                self.holes,
                self.max_path_length,
                self.link_cost,
                self.ibgp,
                governor=self.governor,
            )
            terms = []
            for name, group in seed.encoding.groups.items():
                if name.startswith("requirement:"):
                    terms.extend(group)
            lookups = []
            for key, variable in seed.encoding.best_vars.items():
                prefix_text, hops_text = key.split("|", 1)
                hops = tuple(hops_text.split("."))
                lookups.append((variable.name, hops[-1], prefix_text, hops))
            variant = _Variant(
                sketch=sketch,
                encoding=seed.encoding,
                requirement=And(*terms),
                best_lookups=tuple(lookups),
            )
            self._variants[mutation] = variant
        return variant


SCENARIOS = [scenario1, scenario2, scenario3, campus_scenario]


@pytest.mark.parametrize("per_line", [False, True], ids=["router", "line"])
@pytest.mark.parametrize("build", SCENARIOS, ids=lambda build: build.__name__)
def test_every_probe_of_every_job_agrees(build, per_line):
    scenario = build()
    config, specification = scenario.paper_config, scenario.specification
    engine = ExplanationEngine(config, specification)
    jobs = enumerate_jobs(config, specification, per_line=per_line)
    assert jobs
    probes = environment_probes = 0
    for job in jobs:
        sketch, holes = job.symbolize(config)
        subspec = job.run(engine).subspec
        new = Oracle(sketch, specification, holes, requirement=job.requirement)
        old = _FullSeedOracle(sketch, specification, holes, requirement=job.requirement)
        suite = generate_suite(
            holes,
            seed=0,
            environment_routers=_default_environment_routers(sketch, job.device),
        )
        for case in suite.cases:
            new_truth, new_env = new.truth(case)
            old_truth, old_env = old.truth(case)
            where = (str(job), case)
            assert new_truth == old_truth, where
            assert new_env == old_env, where
            assert new.claim(subspec, case, new_env) == old.claim(
                subspec, case, old_env
            ), where
            probes += 1
            environment_probes += case.mutation is not None
    assert probes > len(jobs)
    assert environment_probes > 0


@pytest.mark.parametrize("device", ["R1", "R2"])
def test_scenario2_req2_holes_outside_the_requirement_resolve(device):
    """scenario2's Req2 reaches only some of R1's and R2's route-map
    lines, so a requirements-only encoding registers only some of the
    job's holes.  The oracle must still give every hole a variable --
    without that, every probe's environment raised ``KeyError`` and the
    audit came back ``unresolved``."""
    scenario = scenario2()
    config, specification = scenario.paper_config, scenario.specification
    job = next(
        job
        for job in enumerate_jobs(config, specification)
        if job.device == device and job.requirement == "Req2"
    )
    sketch, holes = job.symbolize(config)
    bare = Encoder(sketch, specification.restricted_to("Req2"))
    bare.encode(include_selection=False)
    assert set(bare.holes.names) < set(holes)

    engine = ExplanationEngine(config, specification)
    report = Adjudicator(
        sketch, specification, holes, device, requirement="Req2"
    ).check(job.run(engine).subspec)
    assert report.verdict == VERDICT_CONFIRMED
    assert report.unresolved == 0
    assert report.agreements == report.cases
