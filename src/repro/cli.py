"""Command-line interface: ``python -m repro.cli`` (or ``repro-explain``).

Subcommands
-----------
``scenario <name>``
    Print a paper scenario: topology, specification and the
    synthesized configuration (Cisco-style rendering).
``verify <name>``
    Verify the scenario's configuration against its specification.
``synth <name>``
    Run the constraint-based synthesizer on the scenario's sketch and
    report the chosen hole values.
``explain <name> <router> [--requirement R] [--per-line]``
    Generate the localized subspecification for a router (the paper's
    headline flow), optionally one line at a time.
``report <name>``
    The full paper walk-through for a scenario: verification, per-router
    explanations per requirement, and size statistics.
``summarize <name> <router> --requirement R``
    Assume-guarantee summary: what the router guarantees and what it
    assumes about the rest of the managed network (paper §5).
``diagnose <name>``
    Explain why a specification is unrealizable for the scenario's
    sketch (minimal conflicting requirement set); realizable specs
    report success.
``trace <name> <router> <prefix>``
    Provenance of the selected route: the hop-by-hop derivation chain
    with the deciding route-map lines (the positive "why" complementing
    the counterfactual subspecifications; paper §6).
``mine <name>``
    Mine the global intents the scenario's configuration satisfies
    (the Config2Spec/Anime-style baseline of the paper's §6).
``explain-all <name> [-j N] [--cache-dir D | --no-cache] [--since OLD] [--json PATH]``
    Batch-explain every managed router (x every requirement) through
    the farm: parallel worker processes, a persistent content-addressed
    artifact cache, and incremental invalidation (``--since`` re-runs
    only the jobs an edit dirtied).  Runs are supervised: transient
    worker failures are retried with backoff (``--retries``,
    ``--retry-backoff``), hung workers are detected and replaced
    (``--hang-timeout``, needs ``-j 2``+), jobs that exhaust their
    retries are quarantined into the store's ledger
    (``--max-quarantine`` bounds the loss), and a killed batch can
    ``--resume`` from its crash-safe run journal.
``bench [--quick] [--repeat N] [--json PATH] [--compare BASELINE]``
    Run the reproducible benchmark suite over the paper scenarios,
    print per-stage timings and work counters, optionally write a
    schema-versioned BENCH.json and gate against a checked-in
    baseline (non-zero exit on regression).
``analyze --topology F --spec F --config F [--explain ROUTER] [--requirement R]``
    Analyze a *user-provided* network from files: topology in the
    declarative text format (``repro.topology.parser``), specification
    in the paper's DSL, configuration in the Cisco-style rendering.
    Verifies the configuration and optionally explains one router.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from .bgp.render import render_network, render_router
from .explain import ACTION, ExplanationEngine

# Exit codes: the structured error taxonomy maps to distinct non-zero
# codes so scripts can tell a timeout from an unsatisfiable instance
# from a genuine crash (argparse itself uses 2 for usage errors).
# Defined once in repro.farm.report (the batch-report vocabulary) and
# re-exported here for backwards compatibility.
from .farm.report import (
    EXIT_BUDGET,
    EXIT_CANCELLED,
    EXIT_FAILURE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_TIMEOUT,
    EXIT_UNSAT,
    EXIT_USAGE,
)
from .runtime import (
    Cancelled,
    DeadlineExceeded,
    Governor,
    ReproError,
    ResourceExhausted,
)
from .scenarios import SCENARIOS, Scenario
from .spec.printer import format_specification
from .synthesis import SynthesisError, Synthesizer
from .verify import verify

__all__ = ["main", "build_parser"]

_SCENARIOS: Dict[str, Callable[[], Scenario]] = dict(SCENARIOS)


def _load_scenario(name: str) -> Scenario:
    builder = _SCENARIOS.get(name)
    if builder is None:
        known = ", ".join(sorted(_SCENARIOS))
        raise SystemExit(f"unknown scenario {name!r}; choose one of: {known}")
    return builder()


def _non_negative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-explain",
        description="Localized explanations for synthesized network configurations",
    )
    parser.add_argument(
        "--timeout",
        type=_non_negative_float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline for the whole command; degraded or "
        f"aborted runs exit with code {EXIT_TIMEOUT}",
    )
    parser.add_argument(
        "--budget",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="aggregate work budget (SAT conflicts + rewrite steps + "
        "models + candidates + rounds) shared by every stage; "
        f"exhaustion exits with code {EXIT_BUDGET}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    show = subparsers.add_parser("scenario", help="print a paper scenario")
    show.add_argument("name", choices=sorted(_SCENARIOS))

    check = subparsers.add_parser("verify", help="verify a scenario's configuration")
    check.add_argument("name", choices=sorted(_SCENARIOS))
    check.add_argument(
        "--failures",
        type=int,
        default=0,
        metavar="K",
        help="additionally sweep all <=K link failures (robustness check)",
    )

    synth = subparsers.add_parser("synth", help="synthesize from a scenario's sketch")
    synth.add_argument("name", choices=sorted(_SCENARIOS))

    explain = subparsers.add_parser("explain", help="explain a router's configuration")
    explain.add_argument("name", choices=sorted(_SCENARIOS))
    explain.add_argument("router")
    explain.add_argument("--requirement", default=None, help="requirement block name")
    explain.add_argument(
        "--per-line",
        action="store_true",
        help="explain each route-map line separately (the paper's "
        "'one variable at a time' strategy)",
    )
    explain.add_argument(
        "--dialogue",
        action="store_true",
        help="render the answer as the paper's Figure 1d conversation",
    )
    explain.add_argument(
        "--certificate",
        metavar="FILE",
        default=None,
        help="additionally write an auditable explanation certificate",
    )

    report = subparsers.add_parser("report", help="full paper walk-through")
    report.add_argument("name", choices=sorted(_SCENARIOS))

    summarize_cmd = subparsers.add_parser(
        "summarize", help="assume-guarantee summary around a router"
    )
    summarize_cmd.add_argument("name", choices=sorted(_SCENARIOS))
    summarize_cmd.add_argument("router")
    summarize_cmd.add_argument("--requirement", required=True)

    diagnose_cmd = subparsers.add_parser(
        "diagnose", help="explain an unrealizable specification"
    )
    diagnose_cmd.add_argument("name", choices=sorted(_SCENARIOS))

    trace_cmd = subparsers.add_parser(
        "trace", help="provenance of a selected route"
    )
    trace_cmd.add_argument("name", choices=sorted(_SCENARIOS))
    trace_cmd.add_argument("router")
    trace_cmd.add_argument("prefix")

    mine_cmd = subparsers.add_parser(
        "mine", help="mine global intents from a scenario's configuration"
    )
    mine_cmd.add_argument("name", choices=sorted(_SCENARIOS))

    annotate_cmd = subparsers.add_parser(
        "annotate", help="render a router's config with why-comments"
    )
    annotate_cmd.add_argument("name", choices=sorted(_SCENARIOS))
    annotate_cmd.add_argument("router")

    dossier_cmd = subparsers.add_parser(
        "dossier", help="generate the full Markdown explanation dossier"
    )
    dossier_cmd.add_argument("name", choices=sorted(_SCENARIOS))
    dossier_cmd.add_argument("--output", "-o", default=None, metavar="FILE")
    dossier_cmd.add_argument("--failures", type=int, default=0, metavar="K")
    dossier_cmd.add_argument(
        "--audit",
        action="store_true",
        help="attach adversarial audit verdicts to every subspec",
    )
    dossier_cmd.add_argument(
        "--audit-seed", type=int, default=0, metavar="N",
        help="suite seed for --audit (default 0)",
    )

    audit_cmd = subparsers.add_parser(
        "audit",
        help="adversarially audit a scenario's explanations (or "
        "independently re-check an explanation certificate)",
    )
    audit_cmd.add_argument("name", choices=sorted(_SCENARIOS))
    audit_cmd.add_argument(
        "certificate",
        metavar="FILE",
        nargs="?",
        default=None,
        help="an explanation certificate to re-check; without it, every "
        "explainable subspec in the scenario is audited through the "
        "adversarial check loop (repro.audit)",
    )
    audit_cmd.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="suite seed for the adversarial audit / sampling seed for "
        "certificate re-checks (default 0; certificate mode keeps its "
        "legacy sampling when omitted)",
    )
    audit_cmd.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the per-job audit verdicts as JSON",
    )

    bench_cmd = subparsers.add_parser(
        "bench", help="run the reproducible benchmark suite"
    )
    bench_cmd.add_argument(
        "--quick",
        action="store_true",
        help="fewer repetitions (the CI configuration)",
    )
    bench_cmd.add_argument(
        "--repeat",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="iterations per scenario (default: 2 with --quick, else 5)",
    )
    bench_cmd.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the schema-versioned BENCH.json report to PATH",
    )
    bench_cmd.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline BENCH.json; regressions exit "
        f"with code {EXIT_FAILURE}",
    )
    bench_cmd.add_argument(
        "--tolerance",
        type=_non_negative_float,
        default=0.25,
        metavar="FRACTION",
        help="relative median slowdown tolerated by --compare (default 0.25)",
    )
    bench_cmd.add_argument(
        "--scenario",
        action="append",
        default=None,
        choices=["scenario1", "scenario2", "scenario3"],
        help="restrict the suite (repeatable; default: all scenarios)",
    )
    bench_cmd.add_argument(
        "--family",
        action="append",
        default=None,
        choices=["pipeline", "perline", "serve", "audit"],
        help="restrict the bench families (repeatable; default: all). "
        "'pipeline' is the end-to-end pass; 'perline' times the cold "
        "per-line batch under family dispatch vs per-job dispatch; "
        "'serve' times a multi-tenant concurrent workload through the "
        "fair-share queue on a warm worker fleet vs the FIFO + "
        "per-batch-pool path; 'audit' times the adversarial audit "
        "stage cold vs warm (content-addressed verdict cache)",
    )

    explain_all = subparsers.add_parser(
        "explain-all",
        help="batch-explain every managed router through the farm "
        "(parallel workers + persistent artifact cache)",
    )
    explain_all.add_argument("name", choices=sorted(_SCENARIOS))
    explain_all.add_argument(
        "-j",
        "--jobs",
        dest="workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (1 = serial, no multiprocessing)",
    )
    explain_all.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="artifact cache location (default: ~/.cache/repro-farm)",
    )
    explain_all.add_argument(
        "--no-cache",
        action="store_true",
        help="run without the persistent artifact store",
    )
    explain_all.add_argument(
        "--since",
        default=None,
        metavar="OLD_CONFIG",
        help="incremental mode: a rendered configuration file of the "
        "previous run; only jobs it dirtied are re-run",
    )
    explain_all.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the batch report (jobs, cache stats, BENCH-"
        "compatible stage records) as JSON",
    )
    explain_all.add_argument(
        "--per-line",
        action="store_true",
        help="one job per route-map line instead of per router",
    )
    explain_all.add_argument(
        "--no-share",
        action="store_true",
        help="dispatch jobs individually instead of grouping job "
        "families (same device + requirement) onto one worker's "
        "shared caches",
    )
    explain_all.add_argument(
        "--retries",
        type=_non_negative_int,
        default=2,
        metavar="N",
        help="retries per job for transient failures (worker crash, "
        "hang, injected fault) before quarantine (default 2; "
        "permanent failures never retry)",
    )
    explain_all.add_argument(
        "--retry-backoff",
        type=_non_negative_float,
        default=0.1,
        metavar="SECONDS",
        help="first retry delay; doubles per attempt with deterministic "
        "jitter, capped at 5s (default 0.1; 0 disables sleeping)",
    )
    explain_all.add_argument(
        "--hang-timeout",
        type=_non_negative_float,
        default=None,
        metavar="SECONDS",
        help="per-job wall clock after which a worker counts as hung "
        "and is replaced (watchdog; needs -j 2 or more)",
    )
    explain_all.add_argument(
        "--max-quarantine",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="abort the batch once more than N jobs are quarantined "
        "(default: never abort; quarantined jobs exit with code "
        f"{EXIT_PARTIAL})",
    )
    explain_all.add_argument(
        "--resume",
        action="store_true",
        help="replay the crash-safe run journal and re-run only the "
        "jobs a killed batch left unfinished (needs the cache)",
    )
    explain_all.add_argument(
        "--audit",
        action="store_true",
        help="adversarially audit every answered subspec (seeded probe "
        "suite + concrete replay; refuted answers are re-lifted and, "
        "failing that, fail the batch). Observational: answers, cache "
        "keys and stored artifacts are byte-identical without it",
    )
    explain_all.add_argument(
        "--audit-seed",
        type=int,
        default=0,
        metavar="N",
        help="suite seed for --audit (default 0; changing it re-audits)",
    )
    explain_all.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help="(testing) deterministic fault injection: comma-separated "
        "kill@JOB, hang[:SECS]@JOB, flaky[:TIMES]@JOB, "
        "corrupt[:STAGE]@JOB, where JOB is a job id, #N (the Nth job "
        "of a worker process) or *",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP explanation service (see docs/service.md)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8421,
        help="listen port (default 8421)",
    )
    serve.add_argument(
        "-j",
        "--jobs",
        dest="workers",
        type=int,
        default=2,
        metavar="N",
        help="default per-tenant cap on farm workers per batch "
        "(default 2; a --tenant-config overrides)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared artifact cache every batch runs against "
        "(default: ~/.cache/repro-farm)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="run the service without a persistent artifact store",
    )
    serve.add_argument(
        "--tenant-config",
        default=None,
        metavar="PATH",
        help="JSON tenant policy document (schema repro-serve-tenants/1): "
        "per-tenant rate limits and worker/budget/timeout caps",
    )
    serve.add_argument(
        "--drain-timeout",
        type=_non_negative_float,
        default=60.0,
        metavar="SECONDS",
        help="on SIGTERM, how long to wait for in-flight families to "
        "finish and journal before giving up (default 60)",
    )
    serve.add_argument(
        "--fleet-workers",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="size of the persistent warm worker fleet every batch "
        "executes on (default 0: per-batch pools/serial, the "
        "pre-fleet behavior)",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=1,
        metavar="N",
        help="batches run at once under fair-share scheduling "
        "(default 1: one at a time)",
    )
    serve.add_argument(
        "--retain-ttl",
        type=_non_negative_float,
        default=None,
        metavar="SECONDS",
        help="evict finished jobs (and their event logs) this long "
        "after completion (default: keep forever)",
    )
    serve.add_argument(
        "--retain-max",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="retain at most N finished jobs, oldest evicted first "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--event-poll",
        type=_non_negative_float,
        default=10.0,
        metavar="SECONDS",
        help="long-poll length of the /events stream; each expiry "
        "emits a keep-alive chunk and checks the client is still "
        "there (default 10)",
    )

    analyze = subparsers.add_parser(
        "analyze", help="verify/explain a user-provided network from files"
    )
    analyze.add_argument("--topology", required=True, help="topology file")
    analyze.add_argument("--spec", required=True, help="specification file")
    analyze.add_argument("--config", required=True, help="configuration file")
    analyze.add_argument("--managed", default=None,
                         help="comma-separated managed routers (default: all "
                         "routers with role 'managed')")
    analyze.add_argument("--explain", default=None, metavar="ROUTER")
    analyze.add_argument("--requirement", default=None)

    return parser


def _governor_of(args: argparse.Namespace) -> Optional[Governor]:
    """The governor implied by the global --timeout/--budget flags."""
    governor = getattr(args, "governor", None)
    if governor is not None:
        return governor
    if args.timeout is None and args.budget is None:
        return None
    governor = Governor.of(timeout=args.timeout, budget=args.budget)
    args.governor = governor
    return governor


def _degraded_exit(args: argparse.Namespace) -> int:
    """Exit code for a gracefully degraded (but printed) result."""
    governor = getattr(args, "governor", None)
    if governor is not None and governor.deadline is not None and governor.deadline.expired():
        return EXIT_TIMEOUT
    return EXIT_BUDGET


def _cmd_scenario(args: argparse.Namespace, out) -> int:
    scenario = _load_scenario(args.name)
    print(f"# {scenario.name}: {scenario.description}", file=out)
    print(file=out)
    print(scenario.topology.to_ascii(), file=out)
    print(file=out)
    print("## specification", file=out)
    print(format_specification(scenario.specification), file=out)
    print(file=out)
    print("## synthesized configuration", file=out)
    print(render_network(scenario.paper_config), file=out)
    return 0


def _cmd_verify(args: argparse.Namespace, out) -> int:
    scenario = _load_scenario(args.name)
    report = verify(scenario.paper_config, scenario.specification)
    print(report.summary(), file=out)
    ok = report.ok
    if args.failures > 0:
        from .verify import verify_under_failures

        # Protect single-homed stub links whose loss trivially
        # disconnects their router.
        counts = {}
        for link in scenario.topology.links:
            counts[link.a] = counts.get(link.a, 0) + 1
            counts[link.b] = counts.get(link.b, 0) + 1
        protected = tuple(
            (link.a, link.b)
            for link in scenario.topology.links
            if counts[link.a] == 1 or counts[link.b] == 1
        )
        sweep = verify_under_failures(
            scenario.paper_config,
            scenario.specification,
            k=args.failures,
            protected_links=protected,
        )
        print(sweep.summary(), file=out)
        ok = ok and sweep.ok
    return 0 if ok else 1


def _cmd_synth(args: argparse.Namespace, out) -> int:
    scenario = _load_scenario(args.name)
    result = Synthesizer(
        scenario.sketch, scenario.specification, governor=_governor_of(args)
    ).synthesize()
    print(
        f"synthesized {len(result.assignment)} hole values from "
        f"{result.num_constraints} constraints "
        f"({result.encoding_size} nodes)",
        file=out,
    )
    for name in sorted(result.assignment):
        print(f"  {name} = {result.assignment[name]}", file=out)
    report = verify(result.config, scenario.specification)
    print(report.summary(), file=out)
    return 0 if report.ok else 1


def _cmd_explain(args: argparse.Namespace, out) -> int:
    scenario = _load_scenario(args.name)
    engine = ExplanationEngine(
        scenario.paper_config, scenario.specification, governor=_governor_of(args)
    )
    if args.router not in scenario.topology:
        raise SystemExit(f"unknown router {args.router!r}")
    if args.per_line:
        router_config = scenario.paper_config.router_config(args.router)
        for direction, neighbor in router_config.sessions():
            routemap = router_config.get_map(direction, neighbor)
            assert routemap is not None
            for line in routemap.lines:
                explanation = engine.explain_line(
                    args.router, direction, neighbor, line.seq,
                    requirement=args.requirement,
                )
                print(
                    f"--- {args.router} {direction} {neighbor} seq {line.seq}",
                    file=out,
                )
                print(explanation.subspec.render(), file=out)
        return 0
    explanation = engine.explain_router(
        args.router, fields=(ACTION,), requirement=args.requirement
    )
    if args.dialogue:
        from .explain import question_and_answer

        print(question_and_answer(explanation), file=out)
    else:
        print(explanation.report(), file=out)
    if args.certificate:
        if explanation.status.degraded:
            print(
                f"no certificate written: explanation is {explanation.status.value}",
                file=out,
            )
        else:
            from .explain import make_certificate

            with open(args.certificate, "w") as handle:
                handle.write(make_certificate(explanation).to_json())
            print(f"certificate written to {args.certificate}", file=out)
    if explanation.status.degraded:
        return _degraded_exit(args)
    return 0


def _cmd_report(args: argparse.Namespace, out) -> int:
    scenario = _load_scenario(args.name)
    print(f"# {scenario.name}: {scenario.description}", file=out)
    report = verify(scenario.paper_config, scenario.specification)
    print(f"verification: {report.summary()}", file=out)
    engine = ExplanationEngine(
        scenario.paper_config, scenario.specification, governor=_governor_of(args)
    )
    degraded = False
    for block in scenario.specification.blocks:
        print(f"\n## requirement {block.name}", file=out)
        for router in sorted(scenario.specification.managed):
            try:
                explanation = engine.explain_router(
                    router, fields=(ACTION,), requirement=block.name
                )
            except ReproError:
                raise
            except Exception as exc:  # e.g. router without config lines
                print(f"{router}: (not explainable: {exc})", file=out)
                continue
            degraded = degraded or explanation.status.degraded
            print(explanation.subspec.render(), file=out)
    if degraded:
        return _degraded_exit(args)
    return 0


def _cmd_summarize(args: argparse.Namespace, out) -> int:
    from .explain import summarize

    scenario = _load_scenario(args.name)
    if args.router not in scenario.topology:
        raise SystemExit(f"unknown router {args.router!r}")
    summary = summarize(
        scenario.paper_config,
        scenario.specification,
        args.router,
        args.requirement,
    )
    print(summary.render(), file=out)
    return 0


def _cmd_diagnose(args: argparse.Namespace, out) -> int:
    from .synthesis import diagnose

    scenario = _load_scenario(args.name)
    conflict = diagnose(scenario.sketch, scenario.specification)
    if conflict is None:
        print("specification is realizable for this sketch", file=out)
        return 0
    print(conflict.render(), file=out)
    return 1


def _cmd_trace(args: argparse.Namespace, out) -> int:
    from .bgp.provenance import trace_route
    from .bgp.simulation import simulate
    from .topology.prefixes import Prefix, PrefixError

    scenario = _load_scenario(args.name)
    if args.router not in scenario.topology:
        raise SystemExit(f"unknown router {args.router!r}")
    try:
        prefix = Prefix(args.prefix)
    except PrefixError as exc:
        raise SystemExit(str(exc))
    outcome = simulate(scenario.paper_config)
    best = outcome.best(args.router, prefix)
    if best is None:
        print(f"{args.router} has no route to {prefix}", file=out)
        return 1
    print(trace_route(scenario.paper_config, best).render(), file=out)
    return 0


def _cmd_mine(args: argparse.Namespace, out) -> int:
    from .mining import mine_specification

    scenario = _load_scenario(args.name)
    result = mine_specification(
        scenario.paper_config, tuple(sorted(scenario.specification.managed))
    )
    print(result.summary(), file=out)
    print(format_specification(result.specification), file=out)
    return 0


def _cmd_annotate(args: argparse.Namespace, out) -> int:
    from .explain import annotate_router

    scenario = _load_scenario(args.name)
    if args.router not in scenario.topology:
        raise SystemExit(f"unknown router {args.router!r}")
    print(
        annotate_router(scenario.paper_config, scenario.specification, args.router),
        file=out,
    )
    return 0


def _cmd_dossier(args: argparse.Namespace, out) -> int:
    from .explain import generate_dossier

    scenario = _load_scenario(args.name)
    text = generate_dossier(
        scenario.paper_config,
        scenario.specification,
        title=f"explanation dossier: {scenario.name}",
        failure_sweep_k=args.failures,
        audit=args.audit,
        audit_seed=args.audit_seed,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"dossier written to {args.output}", file=out)
    else:
        print(text, file=out)
    return 0


def _cmd_audit(args: argparse.Namespace, out) -> int:
    if args.certificate is not None:
        from .explain import Certificate, FieldRef, audit

        scenario = _load_scenario(args.name)
        with open(args.certificate) as handle:
            certificate = Certificate.from_json(handle.read())
        targets = [
            FieldRef.from_hole_name(name) for name in certificate.variables
        ]
        result = audit(
            certificate, scenario.paper_config, scenario.specification,
            targets, seed=args.seed,
        )
        print(result.summary(), file=out)
        return 0 if result.valid else 1

    import json as json_mod

    from . import api
    from .audit import AuditReport

    seed = args.seed if args.seed is not None else 0
    request = api.ExplainRequest(scenario=args.name, audit=True, audit_seed=seed, no_cache=True)
    report = api.explain_batch(request)
    if not report.results:
        print("no explainable jobs in this scenario", file=out)
        return 0
    refuted = 0
    documents = []
    for result in report.results:
        if result.audit is None:
            print(f"{result.job_id}: audit skipped ({result.status})", file=out)
            continue
        verdict = AuditReport.from_dict(result.audit)
        print(f"{result.job_id}: {verdict.summary()}", file=out)
        documents.append({"job": result.job_id, "audit": dict(result.audit)})
        if verdict.refuted:
            refuted += 1
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(json_mod.dumps(documents, indent=2) + "\n")
        print(f"verdicts written to {args.json}", file=out)
    return 1 if refuted else 0


def _cmd_analyze(args: argparse.Namespace, out) -> int:
    from .bgp.confparse import parse_network
    from .spec.parser import parse as parse_spec
    from .topology.parser import parse_topology

    with open(args.topology) as handle:
        topology = parse_topology(handle.read())
    with open(args.spec) as handle:
        spec_text = handle.read()
    if args.managed is not None:
        managed = [name.strip() for name in args.managed.split(",") if name.strip()]
    else:
        managed = [r.name for r in topology.routers if r.role == "managed"]
    specification = parse_spec(spec_text, managed=managed)
    with open(args.config) as handle:
        config = parse_network(handle.read(), topology)

    report = verify(config, specification)
    print(report.summary(), file=out)
    if args.explain is not None:
        if args.explain not in topology:
            raise SystemExit(f"unknown router {args.explain!r}")
        engine = ExplanationEngine(
            config, specification, governor=_governor_of(args)
        )
        explanation = engine.explain_router(
            args.explain, fields=(ACTION,), requirement=args.requirement
        )
        print(explanation.report(), file=out)
        if explanation.status.degraded:
            return _degraded_exit(args)
    return 0 if report.ok else 1


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    """The artifact store ``--no-cache``/``--cache-dir`` choose
    (``~/.cache/repro-farm`` by default; ``None`` without a cache)."""
    import os

    if args.no_cache and args.cache_dir is not None:
        raise SystemExit("--no-cache and --cache-dir are mutually exclusive")
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-farm")


def _cmd_explain_all(args: argparse.Namespace, out) -> int:
    from . import api
    from .farm.report import dump_document
    from .runtime import ChaosPlan

    cache_dir = _cache_dir(args)
    chaos = None
    if args.chaos is not None:
        try:
            chaos = ChaosPlan.parse(args.chaos)
        except ValueError as exc:
            raise SystemExit(f"bad --chaos plan: {exc}")
        if chaos.needs_process_isolation and args.workers <= 1:
            raise SystemExit("--chaos kill/hang events need -j 2 or more")
    if args.resume and cache_dir is None:
        raise SystemExit("--resume needs the cache (drop --no-cache)")
    since = None
    if args.since is not None:
        if cache_dir is None:
            raise SystemExit("--since needs the cache (drop --no-cache)")
        with open(args.since) as handle:
            since = handle.read()
    request = api.ExplainRequest(
        scenario=args.name,
        since=since,
        per_line=args.per_line,
        workers=args.workers,
        cache_dir=cache_dir,
        timeout=args.timeout,
        budget=args.budget,
        share=not args.no_share,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        hang_timeout=args.hang_timeout,
        max_quarantine=args.max_quarantine,
        resume=args.resume,
        audit=args.audit,
        audit_seed=args.audit_seed,
    )
    try:
        report = api.explain_batch(request, chaos=chaos)
    except api.ApiError as exc:
        raise SystemExit(str(exc))
    if not report.results:
        print("no explainable jobs in this scenario", file=out)
        return EXIT_OK
    print(report.summary_table(), file=out)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(dump_document(dict(report.document)))
        print(f"report written to {args.json}", file=out)
    return report.exit_code(timeout=args.timeout, budget=args.budget)


def _cmd_bench(args: argparse.Namespace, out) -> int:
    from .bench import format_report, run_bench
    from .obs import SchemaError, compare_reports, load_report, write_report

    try:
        report = run_bench(
            scenarios=args.scenario,
            repeat=args.repeat,
            quick=args.quick,
            families=args.family,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(format_report(report), file=out)
    if args.json:
        write_report(report, args.json)
        print(f"report written to {args.json}", file=out)
    if args.compare:
        try:
            baseline = load_report(args.compare)
        except (OSError, SchemaError) as exc:
            print(f"cannot load baseline {args.compare!r}: {exc}", file=sys.stderr)
            return EXIT_FAILURE
        result = compare_reports(report, baseline, tolerance=args.tolerance)
        print(result.render(), file=out)
        if not result.ok:
            return EXIT_FAILURE
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace, out) -> int:
    from .serve import (
        RetentionPolicy,
        TenantBook,
        TenantConfigError,
        TenantPolicy,
        serve_forever,
    )

    cache_dir = _cache_dir(args)
    if args.tenant_config is not None:
        try:
            tenants = TenantBook.from_file(args.tenant_config)
        except (OSError, TenantConfigError) as exc:
            raise SystemExit(f"bad --tenant-config: {exc}")
    else:
        tenants = TenantBook(
            {"default": TenantPolicy(max_workers=args.workers)}
        )
    retention = RetentionPolicy(
        ttl_s=args.retain_ttl, max_completed=args.retain_max
    )
    fleet_note = (
        f"fleet: {args.fleet_workers} workers"
        if args.fleet_workers > 0
        else "fleet: off"
    )
    print(
        f"repro-serve listening on http://{args.host}:{args.port} "
        f"(cache: {cache_dir or 'disabled'}, {fleet_note}, "
        f"concurrency: {max(1, args.concurrency)})",
        file=out,
    )
    return serve_forever(
        host=args.host,
        port=args.port,
        cache_dir=cache_dir,
        tenants=tenants,
        drain_timeout=args.drain_timeout,
        fleet_workers=args.fleet_workers,
        concurrency=args.concurrency,
        retention=retention,
        event_poll_s=args.event_poll,
    )


_COMMANDS = {
    "scenario": _cmd_scenario,
    "verify": _cmd_verify,
    "synth": _cmd_synth,
    "explain": _cmd_explain,
    "report": _cmd_report,
    "summarize": _cmd_summarize,
    "diagnose": _cmd_diagnose,
    "analyze": _cmd_analyze,
    "mine": _cmd_mine,
    "trace": _cmd_trace,
    "audit": _cmd_audit,
    "dossier": _cmd_dossier,
    "annotate": _cmd_annotate,
    "bench": _cmd_bench,
    "explain-all": _cmd_explain_all,
    "serve": _cmd_serve,
}


def main(argv: Optional[list] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    if out is None:
        out = sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args, out)
    except DeadlineExceeded as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except Cancelled as exc:
        print(f"cancelled: {exc}", file=sys.stderr)
        return EXIT_CANCELLED
    except ResourceExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SynthesisError as exc:
        print(f"unsatisfiable: {exc}", file=sys.stderr)
        return EXIT_UNSAT
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except SystemExit:
        raise
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not our error.
        return EXIT_FAILURE
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
