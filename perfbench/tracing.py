"""Spans around the program's public functions, for the traced run.

End-to-end metrics are measured untraced.  The traced run patches the
functions in :data:`TARGETS` -- in every ``repro`` module namespace that
holds them, since most are imported by name (``simulate`` lives in
``explain.project``, ``explain.family``, ``explain.session`` and
``audit.oracle``) -- with wrappers that record one span per call: name,
start, end, parent span and request id.  Spans stay in memory and are
written out once, at the end.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans; whatever the traced wall time does not
cover is reported as ``other``.  The run is single-process
(``workers=1``), so every call is seen.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

#: (span name, layer, module, attribute path).  Engine stages called
#: from inside an audit span are not recorded, so the oracle's own seed
#: encode counts as audit time.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("api.explain_batch", "api", "repro.api", "explain_batch"),
    ("run_family", "farm.worker", "repro.farm.worker", "run_family"),
    ("run_job", "farm.worker", "repro.farm.worker", "run_job"),
    ("run_audit", "audit", "repro.farm.worker", "run_audit"),
    ("store.load", "farm.store_load", "repro.farm.store", "ArtifactStore.load"),
    ("store.save", "farm.store_save", "repro.farm.store", "ArtifactStore.save"),
    ("keys.digest", "farm.keys_digest", "repro.farm.keys", "digest"),
    ("journal.record", "farm.journal_write", "repro.farm.supervise", "RunJournal.record"),
    ("extract_seed", "explain.seed", "repro.explain.seed", "extract_seed"),
    ("seed_for", "explain.seed", "repro.explain.family", "SharedCaches.seed_for"),
    ("simplify_seed", "explain.simplify", "repro.explain.simplifier", "simplify_seed"),
    ("project", "explain.project", "repro.explain.project", "project"),
    ("lift", "explain.lift", "repro.explain.lift", "lift"),
    ("generate_suite", "audit.suite", "repro.audit.suite", "generate_suite"),
    ("Oracle.truth", "audit.oracle_truth", "repro.audit.oracle", "Oracle.truth"),
    ("Oracle.claim", "audit.oracle_claim", "repro.audit.oracle", "Oracle.claim"),
    ("simulate", "bgp.simulate", "repro.bgp.simulation", "simulate"),
    ("SatSolver.solve", "smt.sat_solve", "repro.smt.sat", "SatSolver.solve"),
    ("RewriteEngine.simplify", "smt.rewrite", "repro.smt.rewrite", "RewriteEngine.simplify"),
    ("Encoder.encode", "synthesis.encode", "repro.synthesis.encoder", "Encoder.encode"),
)

ENGINE_LAYERS = ("explain.seed", "explain.simplify", "explain.project", "explain.lift")
AUDIT_LAYERS = ("audit", "audit.suite", "audit.oracle_truth", "audit.oracle_claim")

#: Every layer a share is reported for, in report order.
LAYERS = tuple(dict.fromkeys(layer for _, layer, _, _ in TARGETS)) + ("other",)


def _counter_total(metrics, name: str) -> int:
    """``name`` summed over its stage-attributed variants."""
    suffix = ":" + name
    return sum(
        value
        for key, value in metrics.counters.items()
        if key == name or key.endswith(suffix)
    )


class Recorder:
    """In-memory span store plus the substrate work counters."""

    def __init__(self) -> None:
        #: (layer, start, end, parent index or -1, request id)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        #: Calls per span name, dispatch units and substrate counters.
        self.counts: Dict[str, int] = {}
        self._stack: List[Tuple[int, str]] = []
        self._request = 0
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        recorder = self
        extra = _EXTRA_COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = recorder._stack
            if layer in ENGINE_LAYERS and any(
                recorder.spans[i][0] in AUDIT_LAYERS for i, _ in stack
            ):
                return fn(*args, **kwargs)
            parent, parent_name = stack[-1] if stack else (-1, "")
            if parent < 0:
                recorder._request += 1
            request = recorder._request
            recorder.count(name + ".calls", 1)
            if name == "run_family" or (name == "run_job" and parent_name != "run_family"):
                recorder.count("farm.dispatch_units", 1)
            index = len(recorder.spans)
            recorder.spans.append((layer, 0.0, 0.0, parent, request))
            stack.append((index, name))
            start = time.perf_counter()
            try:
                if extra is None:
                    return fn(*args, **kwargs)
                return extra(recorder, fn, args, kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans[index] = (layer, start, end, parent, request)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Patch every target in every ``repro`` namespace holding it."""
        for name, layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._set(owner, leaf, self.wrap(name, layer, owner.__dict__[leaf]))
                continue
            original = getattr(module, leaf)
            wrapper = self.wrap(name, layer, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    getattr(loaded, "__dict__", {}).get(leaf) is original
                ):
                    self._set(loaded, leaf, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- attribution ------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Layer -> summed self time of its spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (layer, start, end, _, _) in enumerate(self.spans):
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child_time[index]
        return totals

    def shares(self, wall_s: float) -> Dict[str, float]:
        """Each layer's share of ``wall_s``; ``other`` is the rest."""
        totals = self.self_times()
        shares = {layer: totals.get(layer, 0.0) / wall_s for layer in LAYERS[:-1]}
        shares["other"] = max(0.0, 1.0 - sum(shares.values()))
        return shares

    def dump(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON."""
        events = [
            {
                "name": layer,
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"parent": parent, "request": request},
            }
            for layer, start, end, parent, request in self.spans
        ]
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"traceEvents": events}, handle)


# -- counters the wrappers read off the substrate ---------------------------


def _obs_delta(obs, names: Tuple[str, ...], call: Callable[[], object], recorder: Recorder):
    before = [_counter_total(obs.metrics, name) for name in names]
    try:
        return call()
    finally:
        for name, old in zip(names, before):
            recorder.count(name, _counter_total(obs.metrics, name) - old)


def _simulate(recorder: Recorder, fn, args, kwargs):
    """``simulate`` publishes rounds and messages only through ``obs``;
    callers without one (the audit oracle) get a private one."""
    from repro.obs import Instrumentation

    if len(args) > 5 or kwargs.get("obs") is not None:
        obs = args[5] if len(args) > 5 else kwargs["obs"]
    else:
        obs = kwargs["obs"] = Instrumentation()
    return _obs_delta(
        obs, ("simulate.messages", "simulate.rounds"),
        lambda: fn(*args, **kwargs), recorder,
    )


def _encode(recorder: Recorder, fn, args, kwargs):
    from repro.obs import Instrumentation

    encoder = args[0]
    private = encoder.obs is None
    if private:
        encoder.obs = Instrumentation()
    try:
        return _obs_delta(
            encoder.obs, ("encode.steps", "encode.candidates"),
            lambda: fn(*args, **kwargs), recorder,
        )
    finally:
        if private:
            encoder.obs = None


def _sat_solve(recorder: Recorder, fn, args, kwargs):
    result = fn(*args, **kwargs)
    recorder.count("sat.conflicts", result.conflicts)
    recorder.count("sat.propagations", result.propagations)
    return result


_EXTRA_COUNTERS: Dict[str, Callable] = {
    "simulate": _simulate,
    "Encoder.encode": _encode,
    "SatSolver.solve": _sat_solve,
}


def predictions(workload: str, layer: Dict[str, float]) -> List[str]:
    """The broken predictions for ``workload`` (empty when all hold),
    from its per-layer metrics."""
    engine = sum(layer.get(f"share.{name}", 0.0) for name in ENGINE_LAYERS)
    audit = sum(layer.get(f"share.{name}", 0.0) for name in AUDIT_LAYERS)
    broken = []
    if workload == "serve-warm":
        if layer.get("bgp.simulate_calls", 0):
            broken.append("serve-warm ran bgp.simulate")
        if engine:
            broken.append("serve-warm spent time in engine stages")
    if workload == "audit-cold" and engine:
        broken.append("audit-cold spent time in engine stages")
    if workload == "explain-cold" and audit:
        broken.append("explain-cold spent time in audit")
    return broken


#: Per-layer metric name -> span call counter or substrate counter.
CALL_COUNTS = {
    "bgp.simulate_calls": "simulate.calls",
    "smt.sat_solves": "SatSolver.solve.calls",
    "farm.keys_digest_calls": "keys.digest.calls",
    "farm.journal_writes": "journal.record.calls",
    "farm.dispatch_units": "farm.dispatch_units",
    "simulate.messages": "simulate.messages",
    "simulate.rounds": "simulate.rounds",
    "sat.conflicts": "sat.conflicts",
    "sat.propagations": "sat.propagations",
    "encode.steps": "encode.steps",
    "encode.candidates": "encode.candidates",
}

#: Per-layer time metric -> layer whose self time it is.
LAYER_TIMES = {
    "farm.store_load_s": "farm.store_load",
    "farm.store_save_s": "farm.store_save",
    "farm.keys_digest_s": "farm.keys_digest",
    "farm.journal_write_s": "farm.journal_write",
    "explain.seed_s": "explain.seed",
    "explain.simplify_s": "explain.simplify",
    "explain.project_s": "explain.project",
    "explain.lift_s": "explain.lift",
    "audit.suite_s": "audit.suite",
    "audit.oracle_truth_s": "audit.oracle_truth",
    "audit.oracle_claim_s": "audit.oracle_claim",
    "bgp.simulate_s": "bgp.simulate",
    "smt.sat_solve_s": "smt.sat_solve",
    "smt.rewrite_s": "smt.rewrite",
    "synthesis.encode_s": "synthesis.encode",
}


def call_counts(recorder: Recorder) -> Dict[str, int]:
    """The exact counters of :data:`CALL_COUNTS`, cumulative."""
    return {name: recorder.counts.get(key, 0) for name, key in CALL_COUNTS.items()}


def layer_metrics(recorder: Recorder, rounds: int, wall_s: float) -> Dict[str, float]:
    """Per-round self times and each layer's share of ``wall_s``."""
    totals = recorder.self_times()
    metrics = {
        name: totals.get(layer, 0.0) / rounds for name, layer in LAYER_TIMES.items()
    }
    for layer, share in recorder.shares(wall_s).items():
        metrics[f"share.{layer}"] = share
    return metrics
