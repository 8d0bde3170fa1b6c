"""Certificates against the audit oracle, over every case-study job.

A certificate is the engine's projection (acceptable region) and lift
(statements) packaged as data; :func:`repro.explain.audit` re-checks it
with :class:`repro.audit.Oracle` alone.  So a genuine certificate
auditing VALID on every job is a differential test of the engine's
projection and lifting against the independent checker, and a tampered
one auditing INVALID shows the checker is not vacuous.
"""

from dataclasses import replace

import pytest

from repro.explain import (
    ExplanationEngine,
    FieldRef,
    audit,
    make_certificate,
)
from repro.farm.job import enumerate_jobs
from repro.scenarios import campus_scenario, scenario1, scenario2, scenario3

CASE_STUDIES = {
    "scenario1": scenario1,
    "scenario2": scenario2,
    "scenario3": scenario3,
    "campus": campus_scenario,
}


def _targets(certificate):
    return [FieldRef.from_hole_name(name) for name in certificate.variables]


@pytest.mark.parametrize("per_line", [False, True], ids=["router", "line"])
@pytest.mark.parametrize("name", sorted(CASE_STUDIES))
def test_certificates_agree_with_the_oracle(name, per_line):
    scenario = CASE_STUDIES[name]()
    config, specification = scenario.paper_config, scenario.specification
    jobs = enumerate_jobs(config, specification, per_line=per_line)
    assert jobs
    engine = ExplanationEngine(config, specification)
    dropped = appended = 0
    for job in jobs:
        explanation = job.run(engine)
        assert not explanation.status.degraded, job.job_id
        certificate = make_certificate(explanation)
        targets = _targets(certificate)

        genuine = audit(certificate, config, specification, targets)
        assert genuine.valid, f"{job.job_id}: {genuine.summary()}"

        if certificate.acceptable:
            dropped += 1
            tampered = replace(
                certificate, acceptable=certificate.acceptable[1:]
            )
            result = audit(tampered, config, specification, targets)
            assert not result.valid, job.job_id
            assert any(
                "missing from the certificate" in problem
                for problem in result.problems
            ), (job.job_id, result.problems)

        # The genuine audit just showed the engine's rejected set is the
        # oracle's, so its first member is a truth-rejected assignment.
        if explanation.projected.rejected:
            appended += 1
            rejected = tuple(sorted(
                (hole, str(value))
                for hole, value in explanation.projected.rejected[0].items()
            ))
            tampered = replace(
                certificate, acceptable=certificate.acceptable + (rejected,)
            )
            result = audit(tampered, config, specification, targets)
            assert not result.valid, job.job_id
            assert any(
                "rejected on re-check" in problem
                for problem in result.problems
            ), (job.job_id, result.problems)
    # Both tamperings must actually have been exercised.
    assert dropped and appended
