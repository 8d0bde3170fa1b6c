"""The bench runner, its CLI surface, and the byte-identical guarantee."""

import json

import pytest

from repro.bench import SCENARIO_BUILDERS, format_report, run_bench, run_scenario_once
from repro.cli import main
from repro.explain import ACTION, ExplanationEngine
from repro.farm import enumerate_jobs, group_families
from repro.farm.keys import canonical_json
from repro.farm.supervise import run_supervised
from repro.farm.worker import reset_shared_slot
from repro.obs import BenchReport, Instrumentation, SCHEMA_VERSION, write_report
from repro.scenarios import scenario1


@pytest.fixture(scope="module")
def quick_report():
    return run_bench(scenarios=["scenario1"], repeat=1)


def test_bench_produces_stage_records(quick_report):
    stages = {record.stage for record in quick_report.stages}
    # The runner's outer stages plus the engine's pipeline spans.
    assert {"synth", "verify", "simulate", "explain",
            "seed", "simplify", "project", "lift"} <= stages
    assert all(record.scenario == "scenario1" for record in quick_report.stages)
    assert all(record.runs >= 1 for record in quick_report.stages)
    assert all(record.median_s >= 0.0 for record in quick_report.stages)
    assert quick_report.calibration_s > 0.0
    assert quick_report.repeat == 1


def test_bench_records_work_counters(quick_report):
    lift = quick_report.stage("scenario1", "lift")
    assert lift is not None
    assert lift.counters.get("lift.candidates_evaluated", 0) > 0
    project = quick_report.stage("scenario1", "project")
    assert project is not None
    assert project.counters.get("project.assignments", 0) > 0
    synth = quick_report.stage("scenario1", "synth")
    assert synth is not None
    assert synth.counters.get("sat.propagations", 0) > 0


def test_bench_report_round_trips(quick_report):
    restored = BenchReport.from_json(quick_report.to_json())
    assert restored.to_dict() == quick_report.to_dict()


def test_format_report_renders_every_stage(quick_report):
    text = format_report(quick_report)
    for record in quick_report.stages:
        assert record.stage in text


def test_run_bench_rejects_unknown_scenario():
    with pytest.raises(ValueError):
        run_bench(scenarios=["scenario9"])
    with pytest.raises(ValueError):
        run_bench(scenarios=["scenario1"], repeat=0)
    with pytest.raises(ValueError):
        run_bench(scenarios=["scenario1"], families=["warmline"])


def test_perline_family_measures_family_dispatch():
    report = run_bench(
        scenarios=["scenario1"], repeat=1, families=["perline"]
    )
    stages = {record.stage for record in report.stages}
    assert stages == {"perline", "perline.solo"}
    perline = report.stage("scenario1", "perline")
    assert perline is not None and perline.median_s > 0.0
    solo = report.stage("scenario1", "perline.solo")
    assert solo is not None and solo.counters == {}
    scenario = scenario1()
    config, spec = scenario.paper_config, scenario.specification
    jobs = enumerate_jobs(config, spec, per_line=True)
    assert perline.counters == {"farm.families": len(group_families(jobs))}

    # The two dispatch modes the stage times give the same answers and
    # cache keys, byte for byte.
    def answers(share):
        reset_shared_slot()
        batch = run_supervised(config, spec, jobs, cache_dir=None, share=share)
        reset_shared_slot()
        return [
            (result.key, canonical_json({**result.explanation, "timings": {}}))
            for result in batch.results
        ]

    assert answers(share=False) == answers(share=True)


def test_run_scenario_once_nests_engine_spans_under_explain():
    obs = Instrumentation()
    run_scenario_once(SCENARIO_BUILDERS["scenario1"](), obs)
    roots = [span.name for span in obs.tracer.roots]
    assert roots == ["synth", "verify", "simulate", "explain"]
    explain = obs.tracer.roots[-1]
    child_names = {child.name for child in explain.children}
    assert {"seed", "simplify", "project", "lift"} <= child_names


def test_instrumented_run_is_byte_identical():
    scenario = scenario1()
    plain = ExplanationEngine(scenario.paper_config, scenario.specification)
    instrumented = ExplanationEngine(
        scenario.paper_config, scenario.specification, obs=Instrumentation()
    )
    compared = 0
    for requirement in [block.name for block in scenario.specification.blocks]:
        for router in sorted(scenario.specification.managed):
            try:
                a = plain.explain_router(
                    router, fields=(ACTION,), requirement=requirement
                )
            except Exception as exc:
                # Routers without config lines fail identically either way.
                with pytest.raises(type(exc)):
                    instrumented.explain_router(
                        router, fields=(ACTION,), requirement=requirement
                    )
                continue
            b = instrumented.explain_router(
                router, fields=(ACTION,), requirement=requirement
            )
            assert a.subspec.render() == b.subspec.render()
            assert a.report() == b.report()
            assert a.status == b.status
            assert set(a.timings) == set(b.timings)
            compared += 1
    assert compared > 0


def test_engine_timings_keys_unchanged_by_span_refactor():
    scenario = scenario1()
    engine = ExplanationEngine(scenario.paper_config, scenario.specification)
    explanation = engine.explain_router("R1", fields=(ACTION,), requirement="Req1")
    assert set(explanation.timings) == {"seed", "simplify", "project", "lift"}
    assert all(value >= 0.0 for value in explanation.timings.values())


def test_engine_counts_cache_hits():
    scenario = scenario1()
    obs = Instrumentation()
    engine = ExplanationEngine(
        scenario.paper_config, scenario.specification, obs=obs
    )
    engine.explain_router("R1", fields=(ACTION,), requirement="Req1")
    assert "engine.cache_hits" not in obs.metrics.counters
    engine.explain_router("R1", fields=(ACTION,), requirement="Req1")
    assert obs.metrics.counters["engine.cache_hits"] == 1


def test_cli_bench_writes_schema_valid_json(tmp_path, capsys):
    path = tmp_path / "bench.json"
    code = main(
        ["bench", "--repeat", "1", "--scenario", "scenario1", "--json", str(path)]
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["schema"] == SCHEMA_VERSION
    assert data["stages"]
    out = capsys.readouterr().out
    assert "scenario1" in out


def test_cli_bench_compare_ok_and_regression(tmp_path, capsys):
    current = run_bench(scenarios=["scenario1"], repeat=1)
    baseline_path = tmp_path / "baseline.json"

    # Self-comparison (generous tolerance): exit 0.
    write_report(current, str(baseline_path))
    code = main(
        ["bench", "--repeat", "1", "--scenario", "scenario1",
         "--compare", str(baseline_path), "--tolerance", "10.0"]
    )
    assert code == 0
    assert "verdict: OK" in capsys.readouterr().out

    # A baseline claiming everything used to be instant: regression.
    fast = BenchReport.from_json(current.to_json())
    for record in fast.stages:
        record.median_s = record.median_s / 1000.0
    fast.calibration_s = current.calibration_s  # no hardware scaling
    write_report(fast, str(baseline_path))
    code = main(
        ["bench", "--repeat", "1", "--scenario", "scenario1",
         "--compare", str(baseline_path), "--tolerance", "0.25"]
    )
    assert code == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_cli_bench_missing_baseline_fails(tmp_path, capsys):
    code = main(
        ["bench", "--repeat", "1", "--scenario", "scenario1",
         "--compare", str(tmp_path / "absent.json")]
    )
    assert code == 1
