"""The benchmark's one command: run a workload, gate it, print metrics.

From the repository root::

    python3 perfbench/run.py --workload explain-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload audit-cold --steadiness 10 --seconds 25

A run prints every metric by name with its unit, then, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  ``--steadiness N`` instead runs the same
command N times with seeds ``seed .. seed+N-1`` and prints each
metric's median, quartiles and max/min ratio, and whether every count
repeated exactly.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from workloads import CLIENTS, WORKERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Run artifacts: work directories (removed after each run), per-run
#: records, the traced runs' span files and serve-warm's kept fill.
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("explain-cold", "audit-cold", "serve-warm")
#: Set-up samples per run; ``setup_s`` is their median.  An audit-cold
#: sample costs seconds (a cache fill), a serve-warm one a server boot
#: and priming pass, so those take fewer.
SETUP_SAMPLES = {"explain-cold": 7, "audit-cold": 2, "serve-warm": 3}
#: Wall-clock cap on one whole run, all its processes included.
RUN_TIMEOUT_S = 170


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def load_contract() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        return json.load(handle)


def environment() -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "work_root": os.path.relpath(OUT, ROOT),
    }


def child(args, work: str, deadline: float, role: str = "measure",
          setup_only: bool = False) -> Dict[str, object]:
    """Run one workloads.py process; its last stdout line is JSON.

    The process gets its own session, so a timeout takes down the
    server and workers it started along with it.
    """
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
    ]
    if setup_only:
        command.append("--setup-only")
    launched = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - launched))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{role} process for {args.workload} ran out of time")
        raise
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process for {args.workload} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if "ready" in result:
        result["setup_raw_s"] = result["ready"] - launched
        result["setup_s"] = result["setup_raw_s"] * result["setup_scale"]
    return result


def source_key() -> str:
    """Digest of the program's source and of the benchmark files the
    serve-warm fill depends on."""
    digest = hashlib.sha256()
    paths = [os.path.join(HERE, "workloads.py"), os.path.join(HERE, "expected.json")]
    for top, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.join(top, name) for name in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def serve_fill(args, work: str, deadline: float) -> Dict[str, object]:
    """Put serve-warm's filled cache and reference documents in ``work``.

    The fill -- cold batches of the whole mix, then each warm in-process
    document as the reference -- gives the same files for the same
    program source, so it is made once per source digest, kept under
    ``.perfbench/`` and copied into each run (the server appends to the
    journals in its cache).  A fill with failures is not kept.
    """
    kept = os.path.join(OUT, f"serve-fill-{source_key()}")
    if os.path.isdir(kept):
        shutil.copytree(kept, work, dirs_exist_ok=True)
        return {"attempted": 0, "failed": 0, "problems": []}
    staging = os.path.join(OUT, f"fill-staging-{os.getpid()}")
    os.makedirs(staging)
    try:
        result = child(args, staging, deadline, role="fill")
        shutil.copytree(staging, work, dirs_exist_ok=True)
        if result["failed"] == 0:
            for name in os.listdir(OUT):
                if name.startswith("serve-fill-"):  # made from other sources
                    shutil.rmtree(os.path.join(OUT, name), ignore_errors=True)
            try:
                os.rename(staging, kept)
            except OSError:  # another run kept its fill first
                pass
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return result


def run_once(args) -> int:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    contract = load_contract()
    env = environment()
    for name, count in (("workers", WORKERS), ("client connections", CLIENTS)):
        if count > env["nproc"]:
            return fail(f"{count} {name} would exceed nproc={env['nproc']}; refusing to run", 3)
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    attempted = failed = 0
    problems: List[str] = []
    try:
        if args.workload == "serve-warm":
            fill = serve_fill(args, work, deadline)
            attempted, failed = fill["attempted"], fill["failed"]
            problems += fill["problems"]
        setups: List[float] = []
        setups_raw: List[float] = []
        probes = 0 if args.trace else SETUP_SAMPLES[args.workload] - 1
        # Half the set-up samples come after the measured process, so
        # the median spans the run rather than one stretch of the host.
        for measure in [False] * (probes // 2) + [True] + [False] * (probes - probes // 2):
            if measure:
                result = child(args, work, deadline)
                continue
            probe = child(args, work, deadline, setup_only=True)
            setups.append(probe["setup_s"])
            setups_raw.append(probe["setup_raw_s"])
            attempted += probe["attempted"]
            failed += probe["failed"]
            problems += probe["problems"]
        if args.trace:
            spans = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            shutil.move(os.path.join(work, "trace.json"), spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted += result["attempted"]
    failed += result["failed"]
    problems += result["problems"]
    raw: Dict[str, float] = {}
    if args.trace:
        specs = contract["per_layer"]
        values = {spec["name"]: result["layer"].get(spec["name"], 0.0) for spec in specs}
    else:
        specs = contract["end_to_end"]
        values = dict(result["metrics"], setup_s=statistics.median(setups + [result["setup_s"]]))
        raw = dict(result["raw"], setup_s=statistics.median(setups_raw + [result["setup_raw_s"]]))
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "rounds": result["rounds"],
        "counts": result.get("counts", {}), "counts_exact": result["counts_exact"],
        "broken_predictions": result.get("broken", []), "problems": problems,
        "metrics": metrics, "raw_metrics": raw,
        "reference_times": result.get("reference_times", []),
    }
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "records", name), "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} rounds={result['rounds']} "
          f"nproc={env['nproc']} python={env['python']} "
          f"start_method={env['start_method']} work={env['work_root']}")
    for metric, entry in metrics.items():
        line = f"{metric:32} {entry['value']:>16.6g} {entry['unit']:8}"
        if metric in raw and raw[metric] != entry["value"]:
            line += f" (raw {raw[metric]:.6g})"
        print(line)
    if not result["counts_exact"]:
        print("# WARNING: per-round work counts differed between rounds")
    for broken in result.get("broken", []):
        print(f"# BROKEN PREDICTION: {broken}")
    for problem in problems[:20]:
        print(f"# FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


def steadiness(args) -> int:
    """Run the workload N times and summarize each metric's spread."""
    values: Dict[str, List[float]] = {}
    counts: List[Dict[str, float]] = []
    for seed in range(args.seed, args.seed + args.steadiness):
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            out, _ = proc.communicate()
        except BaseException:
            proc.terminate()  # run.py stops its own children on SIGTERM
            proc.communicate()
            raise
        lines = out.decode("utf-8", "replace").strip().splitlines()
        if proc.returncode != 0 or not lines:
            return fail(f"run with seed {seed} exited {proc.returncode}", 1)
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        units = {}
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
        with open(os.path.join(
            OUT, "records", f"{args.workload}-seed{seed}-trace{args.trace}.json"
        ), encoding="ascii") as handle:
            record = json.load(handle)
        counts.append(
            {k: v["value"] for k, v in record["metrics"].items() if v["unit"] == "count"}
            if args.trace else record["counts"]
        )
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/min':>8}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        ratio = max(series) / min(series) if min(series) > 0 else float("nan")
        print(f"{name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {ratio:8.4f} {units[name]}")
    exact = all(c == counts[0] for c in counts)
    print(f"counts repeated exactly across runs: {exact}")
    if not exact:
        for name in sorted(counts[0]):
            series = [c.get(name) for c in counts]
            if len(set(series)) > 1:
                print(f"  {name}: {series}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run N times with consecutive seeds and report each "
                        "metric's spread instead of one result")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so child process groups are killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        return fail(f"no program source under {os.path.join(ROOT, 'src', 'repro')}")
    if args.steadiness:
        return steadiness(args)
    try:
        return run_once(args)
    except RuntimeError as exc:
        return fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
