"""One process of one workload: set-up, closed measuring loop, gate.

``run.py`` starts this script once per set-up sample (``--setup-only``)
and once per measured run, and reads the JSON object it prints as the
last line of its standard output::

    python3 perfbench/workloads.py --role measure --workload explain-cold \\
        --seed 1 --seconds 25 --trace 0 --work .perfbench/work-123

``--role fill`` prepares serve-warm's warm cache and reference
documents before any set-up sample is taken.  Every loop runs whole
rounds -- one pass over the workload's seeded mix -- until
``--seconds`` have been measured, so each round does the same work and
per-round counts repeat exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import random
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import tracing  # noqa: E402  (after the path set-up above)

SCENARIOS = ("scenario1", "scenario2", "scenario3", "campus")
#: (expected-answers key, ``per_line``)
GRANULARITIES = (("per_router", False), ("per_line", True))
#: Farm workers per batch (and fleet workers) and client connections;
#: run.py refuses to start when either exceeds ``nproc``.
WORKERS = 2
CLIENTS = 2
#: serve-warm scrapes ``/v1/metrics`` after every this many requests.
SCRAPE_EVERY = 4
#: The server keeps every finished job, so its memory grows with the
#: requests it has served; serve-warm reads its peak after this many
#: timed requests, not after however many the run happened to fit.
MEMORY_AT_REQUESTS = 64
#: A fixed scale for adjusted timings: about the reference task's CPU
#: seconds on the 2-vCPU host this benchmark was built on.
REFERENCE_S = 0.07
#: Reference samples taken right after set-up.
SETUP_REFERENCES = 4

#: Work counters read off report documents (top-level ``counters`` plus
#: ``bench.stages[].counters``), summed per round.
DOC_COUNTS = (
    "farm.families",
    "smt.session.reuse",
    "engine.family.seed_reuse",
    "project.sim_cache_hits",
    "project.assignments",
    "lift.candidates_evaluated",
    "rewrite.steps",
    "audit.suites",
    "audit.cases",
    "audit.cache.hits",
)


# ---------------------------------------------------------------------------
# Helpers


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def reference_s() -> float:
    """CPU seconds this process takes for a fixed pure-Python task.

    The task uses only the standard library -- dicts of tuples, string
    formatting, sorting, JSON and hashing, the kind of work the program
    spends its time on -- so no change to the program changes it, and
    its time tracks the shared host's speed at that moment.  It runs
    while the program is idle.
    """
    start = time.process_time()
    rng = random.Random(7)
    for _ in range(9):
        # Small tables, so the task does not grow this process's heap
        # (which pool workers forked from it would inherit).
        table = {}
        for i in range(2000):
            key = "k%d" % rng.randrange(100000)
            table[key] = (i, key.upper(), [i % 7, i % 11])
        items = sorted(table.items(), key=lambda item: (item[1][2], item[0]))
        text = json.dumps(items[:666])
        json.loads(text)
        hashlib.sha256(text.encode("ascii")).hexdigest()
    return time.process_time() - start


def cpu_seconds() -> float:
    """CPU of this process plus every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def load_expected() -> Dict[str, Dict[str, Dict[str, Dict[str, str]]]]:
    with open(os.path.join(HERE, "expected.json"), encoding="ascii") as handle:
        return json.load(handle)["answers"]


def answer_problems(results, expected: Dict[str, Dict[str, str]], cached: bool) -> List[str]:
    """Differences between a batch's typed results and the checked-in
    answers; ``cached`` batches must be served whole from the store."""
    got = {r.job_id: r for r in results}
    problems = []
    if set(got) != set(expected):
        problems.append(f"job ids differ: {sorted(set(got) ^ set(expected))}")
    for job_id in sorted(set(got) & set(expected)):
        want = expected[job_id]
        status = "CACHED" if cached and want["status"] == "EXACT" else want["status"]
        if got[job_id].status != status:
            problems.append(f"{job_id}: status {got[job_id].status} != {status}")
        if got[job_id].subspec != want["subspec"]:
            problems.append(f"{job_id}: subspec differs")
    return problems


def doc_counts(document) -> Dict[str, int]:
    """:data:`DOC_COUNTS` plus the store totals of one report document."""
    counters: Dict[str, int] = dict(document.get("counters", {}))
    for stage in document.get("bench", {}).get("stages", ()):
        for name, value in stage.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    counts = {name: counters.get(name, 0) for name in DOC_COUNTS}
    for event, label in (("hit", "hits"), ("miss", "misses"), ("store", "saves")):
        counts[f"farm.store.{label}"] = sum(
            v for k, v in counters.items() if k.startswith(f"farm.store.{event}.")
        )
    counts["farm.store.loads"] = counts["farm.store.hits"] + counts["farm.store.misses"]
    return counts


def add_counts(total: Dict[str, float], more: Dict[str, float]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value


def subtract(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


class Ops:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def result(self) -> Dict[str, object]:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems}


# ---------------------------------------------------------------------------
# In-process batches: explain-cold, audit-cold and serve-warm's replay


class BatchLoop:
    """A closed loop of ``api.explain_batch`` calls from this thread."""

    def __init__(self, ops: Ops, workers: int, recorder=None, references=None) -> None:
        from repro import api
        from repro.farm.worker import reset_shared_slot

        self.api = api
        self.reset = reset_shared_slot
        self.ops = ops
        self.workers = workers
        self.recorder = recorder
        self.busy_s = 0.0
        self.job_s = 0.0
        #: Per-round work counts, and per-round timings (the batches'
        #: latencies, first results, CPU and jobs).
        self.rounds: List[Dict[str, float]] = []
        self.timings: List[Dict[str, List[float]]] = []
        #: Reference task times: given ones taken before the first
        #: round, then one after every batch; ``None`` takes none.
        self.reference_times: Optional[List[float]] = references
        self.initial_references = list(references or [])
        self._round: Dict[str, float] = {}
        self._timing: Dict[str, List[float]] = {}
        self._substrate: Dict[str, float] = {}

    def batch(self, request, expected, cached: bool, audit: bool) -> None:
        """Run one batch, time it and gate its answers."""
        first: List[float] = []

        def progress(result) -> None:
            if not first:
                first.append(time.perf_counter())

        if self.workers == 1:
            # Serial batches keep this thread's family caches between
            # calls; each batch here must start as cold as a pool's.
            self.reset()
        label = f"{request.scenario}/{'line' if request.per_line else 'router'}"
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            report = self.api.explain_batch(request, progress=progress)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            self.ops.record(label, [f"{type(exc).__name__}: {exc}"])
            return
        end = time.perf_counter()
        if self.reference_times is not None:
            self.reference_times.append(reference_s())
            self._timing.setdefault("reference", []).append(self.reference_times[-1])
        self.busy_s += end - start
        self.job_s += sum(r.duration_s for r in report.results)
        for name, value in (
            ("latency", end - start), ("first_result", (first[0] if first else end) - start),
            ("cpu", cpu_seconds() - cpu0), ("jobs", len(report.results)),
        ):
            self._timing.setdefault(name, []).append(value)
        problems = answer_problems(report.results, expected, cached)
        if audit:
            bad = [
                (r.job_id, (r.audit or {}).get("verdict"))
                for r in report.results
                if (r.audit or {}).get("verdict") != "confirmed"
            ]
            if bad:
                problems.append(f"audit verdicts not confirmed: {bad}")
        self.ops.record(label, problems)
        add_counts(self._round, doc_counts(report.document))

    def close_round(self) -> None:
        if self.recorder is not None:
            now = tracing.call_counts(self.recorder)
            add_counts(self._round, subtract(now, self._substrate))
            self._substrate = now
        self.rounds.append(self._round)
        self.timings.append(self._timing)
        self._round = {}
        self._timing = {}

    def counts(self) -> Tuple[Dict[str, float], bool]:
        """(first round's counts, whether every round matched it)."""
        first = self.rounds[0] if self.rounds else {}
        return dict(first), all(r == first for r in self.rounds)

    def end_to_end(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(adjusted, raw) end-to-end metrics: each timing per round,
        the median over the run's rounds.

        The host's speed swings by up to 2x over minutes.  A round's
        adjusted timings are its raw ones scaled by ``REFERENCE_S``
        over the mean of the reference times taken around its batches
        (the last one before it and one after each), which takes that
        swing out.
        """
        timings = [t for t in self.timings if t]  # a round whose batches all failed has none
        scales = []
        before = self.initial_references
        for t in timings:
            scales.append(REFERENCE_S / statistics.mean(before[-1:] + t["reference"]))
            before = t["reference"]
        per_round: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in (
                "jobs_per_s", "request_geomean_s", "first_result_geomean_s", "cpu_s_per_job",
            )
        }
        for t, scale in zip(timings, scales):
            rate = sum(t["jobs"]) / sum(t["latency"])
            per_round["jobs_per_s"].append((rate / scale, rate))
            for name, value in (
                ("request_geomean_s", geomean(t["latency"])),
                ("first_result_geomean_s", geomean(t["first_result"])),
                ("cpu_s_per_job", sum(t["cpu"]) / sum(t["jobs"])),
            ):
                per_round[name].append((value * scale, value))
        adjusted = {name: statistics.median(a for a, _ in pairs) for name, pairs in per_round.items()}
        raw = {name: statistics.median(r for _, r in pairs) for name, pairs in per_round.items()}
        maxrss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        maxrss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # The pool's workers are reaped, so the kernel keeps only the
        # largest one's peak; WORKERS of them run at once.
        adjusted["peak_rss_mb"] = raw["peak_rss_mb"] = (
            maxrss_self + self.workers * maxrss_children
        ) / 1024.0
        return adjusted, raw


class Dirs:
    """Numbered fresh directories under the run's work directory."""

    def __init__(self, work: str) -> None:
        self.work = work
        self.serial = 0

    def fresh(self, prefix: str) -> str:
        self.serial += 1
        path = os.path.join(self.work, f"{prefix}{os.getpid()}-{self.serial}")
        os.makedirs(path)
        return path


def batch_workload(args) -> Dict[str, object]:
    """explain-cold and audit-cold."""
    from repro import api
    from repro.scenarios import SCENARIOS as BUILDERS

    expected = load_expected()
    for name in SCENARIOS:
        BUILDERS[name]()
    ops = Ops()
    dirs = Dirs(args.work)
    audit = args.workload == "audit-cold"
    granularity = "per_router" if audit else "per_line"
    fill_dir = ""
    if audit:
        fill_dir = dirs.fresh("fill-")
        fill = BatchLoop(ops, WORKERS)
        for name in SCENARIOS:
            request = api.ExplainRequest(
                scenario=name, per_line=False, workers=WORKERS, cache_dir=fill_dir
            )
            fill.batch(request, expected[name][granularity], cached=False, audit=False)
    ready = time.monotonic()
    # Set-up here is CPU-bound (imports, scenario builds, the fill), so
    # it is adjusted like the rounds.
    references = [reference_s() for _ in range(SETUP_REFERENCES)]
    setup_scale = REFERENCE_S / statistics.mean(references)
    if args.setup_only:
        return {"ready": ready, "setup_scale": setup_scale, **ops.result()}

    rng = random.Random(args.seed)
    audit_seeds = iter(range(args.seed * 100000 + 1, sys.maxsize))

    def request_for(name: str, workers: int):
        if audit:
            return api.ExplainRequest(
                scenario=name, per_line=False, workers=workers,
                cache_dir=fill_dir, audit=True, audit_seed=next(audit_seeds),
            )
        return api.ExplainRequest(
            scenario=name, per_line=True, workers=workers,
            cache_dir=dirs.fresh("cold-"),
        )

    def one_round(loop: BatchLoop) -> float:
        order = list(SCENARIOS)
        rng.shuffle(order)
        start = time.perf_counter()
        for name in order:
            loop.batch(
                request_for(name, loop.workers), expected[name][granularity],
                cached=audit, audit=audit,
            )
        wall = time.perf_counter() - start
        loop.close_round()
        return wall

    if not args.trace:
        loop = BatchLoop(ops, WORKERS, references=references)
        timed = 0.0
        while timed < args.seconds:
            timed += one_round(loop)
        counts, exact = loop.counts()
        metrics, raw = loop.end_to_end()
        return {
            "ready": ready, "setup_scale": setup_scale, **ops.result(),
            "metrics": metrics, "raw": raw, "reference_times": loop.reference_times,
            "rounds": len(loop.rounds), "counts": counts, "counts_exact": exact,
        }
    return traced_rounds(args, ops, one_round)


def traced_rounds(args, ops: Ops, one_round, layer: Optional[Dict[str, float]] = None):
    """The traced run of an in-process mix.

    One untraced round on the real shape gives the executor's idle
    share (skipped when ``layer`` already has it).  Then untraced and
    traced rounds alternate on ``workers=1`` until the pairs add up to
    ``--seconds``: the traced ones give the layer times and shares, and
    the two medians the tracing overhead.
    """
    layer = dict(layer or {})
    if "farm.idle_share" not in layer:
        executor = BatchLoop(ops, WORKERS)
        one_round(executor)
        layer["farm.idle_share"] = 1.0 - executor.job_s / (WORKERS * executor.busy_s)
    recorder = tracing.Recorder()
    untraced = BatchLoop(ops, 1)
    traced = BatchLoop(ops, 1, recorder)
    plain: List[float] = []
    walls: List[float] = []
    while sum(walls) + sum(plain) < args.seconds:
        plain.append(one_round(untraced))
        recorder.install()
        try:
            walls.append(one_round(traced))
        finally:
            recorder.uninstall()
    counts, exact = traced.counts()
    layer.update(tracing.layer_metrics(recorder, len(walls), sum(walls)))
    for name, value in counts.items():
        layer.setdefault(name, value)
    layer["trace.overhead_share"] = statistics.median(walls) / statistics.median(plain) - 1.0
    broken = tracing.predictions(args.workload, layer)
    layer["predictions.broken"] = len(broken)
    recorder.dump(os.path.join(args.work, "trace.json"))
    return {
        **ops.result(), "layer": layer, "rounds": len(walls),
        "counts_exact": exact, "broken": broken,
    }


# ---------------------------------------------------------------------------
# serve-warm: the HTTP server as a subprocess


def serve_cache(work: str) -> str:
    return os.path.join(work, "serve-cache")


def reference_path(work: str, name: str, granularity: str) -> str:
    return os.path.join(work, "reference", f"{name}.{granularity}.json")


def serve_fill(args) -> Dict[str, object]:
    """Fill serve-warm's cache cold, then keep each warm in-process
    document (normalized) as the reference served bytes must match."""
    from repro import api
    from repro.farm.report import dump_document, normalize_document

    expected = load_expected()
    ops = Ops()
    cache = serve_cache(args.work)
    os.makedirs(os.path.join(args.work, "reference"))
    for granularity, per_line in GRANULARITIES:
        for name in SCENARIOS:
            request = api.ExplainRequest(
                scenario=name, per_line=per_line, workers=WORKERS, cache_dir=cache
            )
            for cached in (False, True):
                report = api.explain_batch(request)
                ops.record(
                    f"fill {name}/{granularity}",
                    answer_problems(report.results, expected[name][granularity], cached),
                )
            with open(reference_path(args.work, name, granularity), "w", encoding="ascii") as handle:
                handle.write(dump_document(normalize_document(dict(report.document))))
    return ops.result()


def _children(pid: int) -> List[int]:
    """Every live descendant of ``pid``."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        parents.setdefault(ppid, []).append(int(entry))
    found, pending = [], [pid]
    while pending:
        for child in parents.get(pending.pop(), ()):
            found.append(child)
            pending.append(child)
    return found


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _proc_cpu(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Server:
    """``repro.cli serve`` on a free local port, fleet and all."""

    def __init__(self, work: str) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # The default tenant policy admits 10 requests/s; on a fast host
        # the closed loop goes past that and would measure 429 answers.
        # The same policy with a bucket the loop never drains keeps
        # admission and shaping on the path without refusing a request.
        tenants = os.path.join(work, f"tenants-{self.port}.json")
        with open(tenants, "w", encoding="ascii") as handle:
            json.dump({"schema": "repro-serve-tenants/1", "tenants": {"default": {
                "rate": 1000.0, "burst": 1000, "max_workers": WORKERS,
            }}}, handle)
        self.log = open(os.path.join(work, f"server-{self.port}.log"), "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", str(self.port),
                "--fleet-workers", str(WORKERS), "--concurrency", str(CLIENTS),
                "-j", str(WORKERS), "--cache-dir", serve_cache(work),
                "--tenant-config", tenants,
            ],
            cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.pids: List[int] = []

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def wait_healthy(self, limit_s: float = 120.0) -> None:
        deadline = time.monotonic() + limit_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                conn = self.connect()
                conn.request("GET", "/v1/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    break
                conn.close()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /v1/healthz")
            time.sleep(0.01)
        self.pids = [self.proc.pid] + _children(self.proc.pid)

    def cpu_s(self) -> float:
        return sum(_proc_cpu(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        return sum(_proc_hwm_kb(pid) for pid in self.pids) / 1024.0

    def stop(self) -> None:
        """SIGTERM (the server drains and closes its fleet), then make
        sure nothing it started outlives it."""
        descendants = _children(self.proc.pid) if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 10
        for pid in descendants:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
                while _alive(pid) and time.monotonic() < deadline + 5:
                    time.sleep(0.02)
        self.log.close()


def parse_metrics(body: str) -> Dict[str, float]:
    """Counters and gauges of a Prometheus text body."""
    values: Dict[str, float] = {}
    for line in body.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values


def scrape_counts(values: Dict[str, float]) -> Dict[str, float]:
    """The exact serve-side work counters of one ``/v1/metrics`` body."""
    def total(prefix: str) -> float:
        return sum(v for k, v in values.items() if k.startswith(prefix))

    hits = total("repro_farm_store_hit_")
    misses = total("repro_farm_store_miss_")
    return {
        "farm.store.hits": hits,
        "farm.store.misses": misses,
        "farm.store.loads": hits + misses,
        "farm.store.saves": total("repro_farm_store_store_"),
        "farm.families": values.get("repro_farm_families", 0.0),
        "farm.fleet.tasks_done": values.get("repro_farm_fleet_tasks_done", 0.0),
    }


class ServeClients:
    """Two closed-loop client connections over a seeded mix."""

    def __init__(self, server: Server, references: Dict[Tuple[str, str], str], ops: Ops) -> None:
        from repro.farm.report import dump_document, normalize_document

        self.dump = dump_document
        self.normalize = normalize_document
        self.server = server
        self.references = references
        self.ops = ops
        self.lock = threading.Lock()
        self.samples: List[Dict[str, float]] = []
        self.scrapes: List[Tuple[float, int]] = []
        self.jobs = 0
        self.job_s = 0.0
        self.worker_wall_s = 0.0
        self.completed = 0
        self.peak_rss_mb: Optional[float] = None

    def request(self, conn: http.client.HTTPConnection, name: str, granularity: str, per_line: bool) -> None:
        body = json.dumps({"scenario": name, "per_line": per_line, "workers": WORKERS})
        sample: Dict[str, float] = {}
        t0 = time.perf_counter()
        conn.request("POST", "/v1/jobs", body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        posted = json.loads(response.read())
        sample["post_s"] = time.perf_counter() - t0
        if response.status != 202:
            raise RuntimeError(f"POST answered {response.status}: {posted}")
        conn.request("GET", f"/v1/jobs/{posted['id']}/events")
        response = conn.getresponse()
        seen: Dict[str, float] = {}
        for line in iter(response.readline, b""):
            if not line.strip():
                continue
            now = time.perf_counter()
            kind = json.loads(line)["event"]
            if kind == "settled":
                seen.setdefault("first_settled", now)
                seen["last_settled"] = now
            else:
                seen.setdefault(kind, now)
        t_result = time.perf_counter()
        conn.request("GET", f"/v1/jobs/{posted['id']}/result")
        response = conn.getresponse()
        raw = response.read()
        t1 = time.perf_counter()
        if response.status != 200:
            raise RuntimeError(f"result answered {response.status}")
        document = json.loads(raw)
        sample.update(
            latency_s=t1 - t0,
            first_result_s=seen.get("first_settled", t1) - t0,
            queue_wait_s=seen["started"] - (t0 + sample["post_s"]),
            first_settle_s=seen.get("first_settled", seen["finished"]) - seen["started"],
            finish_s=seen["finished"] - seen.get("last_settled", seen["started"]),
            result_s=t1 - t_result,
            result_bytes=len(raw),
        )
        served = self.dump(self.normalize(document))
        problems = [] if served == self.references[(name, granularity)] else [
            "served document differs from the in-process reference"
        ]
        with self.lock:
            self.ops.record(f"serve {name}/{granularity}", problems)
            self.samples.append(sample)
            self.jobs += len(document["jobs"])
            self.job_s += sum(row["duration_s"] for row in document["jobs"])
            self.worker_wall_s += document["workers"] * document["wall_s"]
            self.completed += 1
            scrape = self.completed % SCRAPE_EVERY == 0
            if self.completed == MEMORY_AT_REQUESTS:
                self.peak_rss_mb = self.server.peak_rss_mb()
        if scrape:
            self.scrape(conn)

    def scrape(self, conn: http.client.HTTPConnection) -> str:
        t0 = time.perf_counter()
        conn.request("GET", "/v1/metrics")
        body = conn.getresponse().read()
        with self.lock:
            self.scrapes.append((time.perf_counter() - t0, len(body)))
        return body.decode("utf-8")

    def run(self, rng: random.Random, seconds: float) -> Tuple[int, float]:
        """Whole rounds of the shuffled mix until ``seconds`` pass;
        returns (rounds, wall seconds)."""
        mix = [(n, g, p) for n in SCENARIOS for g, p in GRANULARITIES]
        pending: List[Tuple[str, str, bool]] = []
        rounds = [0]
        start = time.perf_counter()
        errors: List[BaseException] = []

        def next_item() -> Optional[Tuple[str, str, bool]]:
            with self.lock:
                if not pending:
                    if rounds[0] and time.perf_counter() - start >= seconds:
                        return None
                    order = list(mix)
                    rng.shuffle(order)
                    pending.extend(order)
                    rounds[0] += 1
                return pending.pop(0)

        def client() -> None:
            conn = self.server.connect()
            try:
                while True:
                    item = next_item()
                    if item is None:
                        return
                    try:
                        self.request(conn, *item)
                    except Exception as exc:  # noqa: BLE001 - counted as failed
                        with self.lock:
                            self.ops.record(f"serve {item[0]}/{item[1]}", [f"{type(exc).__name__}: {exc}"])
                        conn.close()
                        conn = self.server.connect()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
            finally:
                conn.close()

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return rounds[0], time.perf_counter() - start


def serve_workload(args) -> Dict[str, object]:
    from repro.scenarios import SCENARIOS as BUILDERS

    for name in SCENARIOS:
        BUILDERS[name]()
    references = {}
    for name in SCENARIOS:
        for granularity, _ in GRANULARITIES:
            with open(reference_path(args.work, name, granularity), encoding="ascii") as handle:
                references[(name, granularity)] = handle.read()
    ops = Ops()
    rng = random.Random(args.seed)
    server = Server(args.work)
    try:
        server.wait_healthy()
        ServeClients(server, references, ops).run(rng, 0.0)
        ready = time.monotonic()
        if args.setup_only:
            return {"ready": ready, "setup_scale": 1.0, **ops.result()}
        clients = ServeClients(server, references, ops)
        conn = server.connect()
        before = scrape_counts(parse_metrics(clients.scrape(conn)))
        clients.scrapes.clear()
        cpu0 = server.cpu_s()
        rounds, wall = clients.run(rng, args.seconds)
        cpu = server.cpu_s() - cpu0
        after = scrape_counts(parse_metrics(clients.scrape(conn)))
        conn.close()
        peak = clients.peak_rss_mb if clients.peak_rss_mb is not None else server.peak_rss_mb()
    finally:
        server.stop()
    samples = clients.samples
    # Not adjusted for host speed: much of a request's wall time is
    # network timers (delayed ACKs) that the host's speed does not scale.
    metrics = {
        "jobs_per_s": clients.jobs / wall,
        "request_geomean_s": geomean([s["latency_s"] for s in samples]),
        "first_result_geomean_s": geomean([s["first_result_s"] for s in samples]),
        "cpu_s_per_job": cpu / clients.jobs,
        "peak_rss_mb": peak,
    }
    totals = subtract(after, before)
    counts = {name: value / rounds for name, value in totals.items()}
    exact = all(float(value).is_integer() for value in counts.values())
    result = {
        "ready": ready, "setup_scale": 1.0, **ops.result(), "metrics": metrics,
        "raw": metrics, "rounds": rounds, "counts": counts, "counts_exact": exact,
    }
    if not args.trace:
        return result
    layer = dict(counts)
    for key in ("post_s", "queue_wait_s", "first_settle_s", "finish_s", "result_s", "result_bytes"):
        layer[f"serve.{key}"] = statistics.median(s[key] for s in samples)
    layer["serve.scrape_s"] = statistics.median(s for s, _ in clients.scrapes)
    layer["serve.scrape_bytes"] = statistics.median(b for _, b in clients.scrapes)
    layer["farm.idle_share"] = 1.0 - clients.job_s / clients.worker_wall_s
    return replay_rounds(args, ops, rng, layer)


def replay_rounds(args, ops: Ops, rng: random.Random, layer: Dict[str, float]):
    """serve-warm's mix replayed in-process on the server's warm cache,
    traced, for the store, keys and journal times."""
    from repro import api

    expected = load_expected()
    cache = serve_cache(args.work)
    mix = [(n, g, p) for n in SCENARIOS for g, p in GRANULARITIES]

    def one_round(loop: BatchLoop) -> float:
        order = list(mix)
        rng.shuffle(order)
        start = time.perf_counter()
        for name, granularity, per_line in order:
            request = api.ExplainRequest(
                scenario=name, per_line=per_line, workers=loop.workers, cache_dir=cache
            )
            loop.batch(request, expected[name][granularity], cached=True, audit=False)
        wall = time.perf_counter() - start
        loop.close_round()
        return wall

    return traced_rounds(args, ops, one_round, layer)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("measure", "fill"), default="measure")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    if args.role == "fill":
        result = serve_fill(args)
    elif args.workload == "serve-warm":
        result = serve_workload(args)
    else:
        result = batch_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
