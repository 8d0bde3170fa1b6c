"""repro.api: the typed public facade over the explanation pipeline.

Every front-end -- the ``explain-all`` CLI, the HTTP serving layer
(:mod:`repro.serve`) and downstream Python callers -- speaks the same
four frozen dataclasses instead of ad-hoc kwargs and dicts:

* :class:`ExplainRequest` -- what to explain (a named scenario or
  inline topology/spec/config texts) and under which limits, caching
  and supervision knobs.  One request describes one batch.
* :class:`ExplainResult` -- one job's outcome (status, subspec, cache
  provenance, attempts, the full explanation payload).
* :class:`BatchReport` -- the typed batch outcome: per-job results
  plus the byte-exact ``repro-farm-report/2`` document the CLI writes
  with ``--json`` (so serving a report over HTTP and writing it to
  disk produce identical bytes).
* :class:`JobStatus` -- the lifecycle snapshot of a submitted batch
  (the serving layer's ``GET /v1/jobs/{id}`` body).

All four carry schema-versioned ``to_json``/``from_json``; unknown
schemas are rejected, not guessed at.  :func:`explain_batch` is the
single execution entry point: it resolves the request's inputs, runs
the supervised farm (retries, quarantine, crash-safe journal, and
incremental ``since`` runs -- see :mod:`repro.farm.supervise`) and
wraps the outcome.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .bgp.config import NetworkConfig
from .explain.symbolize import (
    ACTION,
    MATCH_ATTR,
    MATCH_VALUE,
    SET_ATTR,
    SET_VALUE,
)
from .farm import report as farm_report
from .farm.job import enumerate_jobs
from .farm.keys import FarmOptions
from .farm.pool import BatchReport as _FarmBatchReport
from .farm.supervise import SupervisePolicy, run_supervised
from .farm.worker import JobResult
from .spec.ast import Specification

__all__ = [
    "API_REQUEST_SCHEMA",
    "API_RESULT_SCHEMA",
    "API_BATCH_SCHEMA",
    "API_STATUS_SCHEMA",
    "ApiError",
    "ExplainRequest",
    "ExplainResult",
    "BatchReport",
    "JobStatus",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_DRAINED",
    "explain_batch",
    "resolve_inputs",
]

API_REQUEST_SCHEMA = "repro-api-request/1"
API_RESULT_SCHEMA = "repro-api-result/1"
API_BATCH_SCHEMA = "repro-api-batch/1"
API_STATUS_SCHEMA = "repro-api-status/1"

_FIELD_KINDS = frozenset({ACTION, MATCH_ATTR, MATCH_VALUE, SET_ATTR, SET_VALUE})

#: Batch lifecycle states (the serving layer's job machine).
STATE_QUEUED = "QUEUED"
STATE_RUNNING = "RUNNING"
STATE_DONE = "DONE"
STATE_FAILED = "FAILED"
#: The server drained (SIGTERM) before this batch finished; settled
#: jobs are journaled, a resubmission resumes the remainder.
STATE_DRAINED = "DRAINED"

_STATES = frozenset(
    {STATE_QUEUED, STATE_RUNNING, STATE_DONE, STATE_FAILED, STATE_DRAINED}
)


class ApiError(ValueError):
    """A malformed or unresolvable request/document.

    Raised at the facade boundary (validation, JSON decoding, schema
    mismatch) -- never for pipeline failures, which are reported
    per-job inside a :class:`BatchReport`.
    """


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ApiError(message)


def _decode(text: str, schema: str) -> Dict[str, Any]:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ApiError(f"malformed JSON: {exc}")
    _expect(isinstance(payload, dict), "document must be a JSON object")
    _expect(
        payload.get("schema") == schema,
        f"expected schema {schema!r}, got {payload.get('schema')!r}",
    )
    return payload


# ---------------------------------------------------------------------------
# ExplainRequest


@dataclass(frozen=True)
class ExplainRequest:
    """One batch-explanation request, fully self-describing.

    Exactly one input style must be used: ``scenario`` names a built-in
    scenario, or ``topology``/``spec``/``config`` carry the network
    inline as the text formats the ``analyze`` command reads.  The
    remaining knobs mirror the ``explain-all`` flags one-for-one (same
    defaults), so a request submitted over HTTP computes exactly what
    the CLI would.
    """

    scenario: Optional[str] = None
    topology: Optional[str] = None
    spec: Optional[str] = None
    config: Optional[str] = None
    managed: Tuple[str, ...] = ()
    #: Incremental mode: the previous run's rendered configuration
    #: (the ``--since`` file's contents).
    since: Optional[str] = None
    per_line: bool = False
    fields: Tuple[str, ...] = (ACTION,)
    workers: int = 1
    cache_dir: Optional[str] = None
    no_cache: bool = False
    timeout: Optional[float] = None
    budget: Optional[int] = None
    share: bool = True
    retries: int = 2
    retry_backoff: float = 0.1
    hang_timeout: Optional[float] = None
    max_quarantine: Optional[int] = None
    resume: bool = False
    #: Adversarially audit every answered subspec (``--audit``); purely
    #: observational -- answers, keys and cached artifacts are
    #: byte-identical with or without it.
    audit: bool = False
    audit_seed: int = 0

    def __post_init__(self) -> None:
        # Tuples may arrive as lists from JSON; freeze them.
        if not isinstance(self.fields, tuple):
            object.__setattr__(self, "fields", tuple(self.fields))
        if not isinstance(self.managed, tuple):
            object.__setattr__(self, "managed", tuple(self.managed))

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        inline = (self.topology, self.spec, self.config)
        if self.scenario is not None:
            _expect(
                all(part is None for part in inline),
                "give either a scenario name or inline "
                "topology/spec/config, not both",
            )
        else:
            _expect(
                all(part is not None for part in inline),
                "inline requests need topology, spec and config together",
            )
        _expect(self.fields != (), "fields cannot be empty")
        unknown = set(self.fields) - _FIELD_KINDS
        _expect(not unknown, f"unknown field kinds: {sorted(unknown)}")
        _expect(self.workers >= 1, "workers must be >= 1")
        _expect(self.retries >= 0, "retries must be >= 0")
        _expect(self.retry_backoff >= 0, "retry_backoff must be >= 0")
        _expect(
            self.timeout is None or self.timeout >= 0,
            "timeout must be >= 0",
        )
        _expect(self.budget is None or self.budget >= 0, "budget must be >= 0")
        _expect(
            self.hang_timeout is None or self.hang_timeout > 0,
            "hang_timeout must be > 0",
        )
        _expect(
            self.max_quarantine is None or self.max_quarantine >= 0,
            "max_quarantine must be >= 0",
        )
        _expect(
            not (self.no_cache and self.cache_dir is not None),
            "no_cache and cache_dir are mutually exclusive",
        )
        _expect(
            not (self.since is not None and self.no_cache),
            "incremental (since) requests need the cache",
        )
        _expect(
            not (self.resume and self.no_cache),
            "resume needs the cache",
        )

    # -- derived views ---------------------------------------------------

    @property
    def name(self) -> str:
        """The scenario label batch reports carry."""
        return self.scenario if self.scenario is not None else "inline"

    def options(self) -> FarmOptions:
        return FarmOptions(
            fields=self.fields, audit=self.audit, audit_seed=self.audit_seed
        )

    def policy(self) -> SupervisePolicy:
        return SupervisePolicy(
            max_retries=self.retries,
            backoff_base=self.retry_backoff,
            hang_timeout=self.hang_timeout,
            max_quarantine=self.max_quarantine,
            resume=self.resume,
        )

    # -- serialization ---------------------------------------------------

    def payload(self) -> Dict[str, object]:
        return {
            "schema": API_REQUEST_SCHEMA,
            "scenario": self.scenario,
            "topology": self.topology,
            "spec": self.spec,
            "config": self.config,
            "managed": list(self.managed),
            "since": self.since,
            "per_line": self.per_line,
            "fields": list(self.fields),
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "no_cache": self.no_cache,
            "timeout": self.timeout,
            "budget": self.budget,
            "share": self.share,
            "retries": self.retries,
            "retry_backoff": self.retry_backoff,
            "hang_timeout": self.hang_timeout,
            "max_quarantine": self.max_quarantine,
            "resume": self.resume,
            "audit": self.audit,
            "audit_seed": self.audit_seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ExplainRequest":
        """Build (and validate) a request from a decoded JSON object.

        Unknown keys are rejected: a typo'd knob silently ignored is a
        served answer computed under the wrong limits.
        """
        _expect(isinstance(payload, Mapping), "request must be a JSON object")
        known = {f.name for f in dataclass_fields(cls)}
        data = {k: v for k, v in payload.items() if k != "schema"}
        unknown = set(data) - known
        _expect(not unknown, f"unknown request keys: {sorted(unknown)}")
        try:
            request = cls(**data)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ApiError(f"malformed request: {exc}")
        request.validate()
        return request

    @classmethod
    def from_json(cls, text: str) -> "ExplainRequest":
        return cls.from_payload(_decode(text, API_REQUEST_SCHEMA))


def resolve_inputs(
    request: ExplainRequest,
) -> Tuple[NetworkConfig, Specification]:
    """The (config, specification) pair a request describes.

    Raises :class:`ApiError` for unknown scenario names or unparsable
    inline texts.
    """
    request.validate()
    if request.scenario is not None:
        from .scenarios import SCENARIOS

        builder = SCENARIOS.get(request.scenario)
        _expect(
            builder is not None,
            f"unknown scenario {request.scenario!r}; "
            f"choose one of: {', '.join(sorted(SCENARIOS))}",
        )
        assert builder is not None
        scenario = builder()
        return scenario.paper_config, scenario.specification
    from .bgp.confparse import parse_network
    from .spec.parser import parse as parse_spec
    from .topology.parser import parse_topology

    assert request.topology is not None
    assert request.spec is not None
    assert request.config is not None
    try:
        topology = parse_topology(request.topology)
        managed = list(request.managed) or [
            router.name for router in topology.routers if router.role == "managed"
        ]
        specification = parse_spec(request.spec, managed=managed)
        config = parse_network(request.config, topology)
    except ApiError:
        raise
    except Exception as exc:
        raise ApiError(f"unparsable inline network: {exc}")
    return config, specification


# ---------------------------------------------------------------------------
# ExplainResult


@dataclass(frozen=True)
class ExplainResult:
    """One job's typed outcome (the facade's view of a ``JobResult``)."""

    job_id: str
    status: str
    cached: bool = False
    duration_s: float = 0.0
    subspec: str = ""
    key: Optional[str] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None
    attempts: int = 1
    quarantined: bool = False
    #: The schema-stamped explanation payload (``None`` for errors).
    explanation: Optional[Mapping[str, object]] = None
    #: The ``repro-audit/1`` verdict payload (``None`` unless the batch
    #: ran with ``audit=True`` and this job's answer was auditable).
    audit: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        _expect(
            self.status in farm_report.ALL_STATUSES,
            f"unknown job status {self.status!r}",
        )

    @property
    def ok(self) -> bool:
        return self.status in farm_report.OK_STATUSES

    @property
    def degraded(self) -> bool:
        return self.status in farm_report.DEGRADED_STATUSES

    @classmethod
    def from_job_result(cls, result: JobResult) -> "ExplainResult":
        return cls(
            job_id=result.job.job_id,
            status=result.status,
            cached=result.cached,
            duration_s=result.duration_s,
            subspec=result.subspec,
            key=result.key,
            error=result.error,
            error_kind=result.error_kind,
            attempts=result.attempts,
            quarantined=result.quarantined,
            explanation=result.explanation,
            audit=result.audit,
        )

    def payload(self) -> Dict[str, object]:
        return {
            "schema": API_RESULT_SCHEMA,
            "job_id": self.job_id,
            "status": self.status,
            "cached": self.cached,
            "duration_s": self.duration_s,
            "subspec": self.subspec,
            "key": self.key,
            "error": self.error,
            "error_kind": self.error_kind,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "explanation": dict(self.explanation)
            if self.explanation is not None
            else None,
            "audit": dict(self.audit) if self.audit is not None else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ExplainResult":
        data = {k: v for k, v in payload.items() if k != "schema"}
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        _expect(not unknown, f"unknown result keys: {sorted(unknown)}")
        try:
            return cls(**data)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ApiError(f"malformed result: {exc}")

    @classmethod
    def from_json(cls, text: str) -> "ExplainResult":
        return cls.from_payload(_decode(text, API_RESULT_SCHEMA))


# ---------------------------------------------------------------------------
# BatchReport


@dataclass(frozen=True)
class BatchReport:
    """The typed outcome of one executed batch.

    ``document`` is the byte-exact ``repro-farm-report/2`` JSON the CLI
    writes with ``--json`` (and the server returns from
    ``GET /v1/jobs/{id}/result``); ``results`` are the typed per-job
    views including subspecs and full explanation payloads, which the
    document deliberately omits.
    """

    scenario: str
    workers: int
    wall_s: float
    results: Tuple[ExplainResult, ...]
    document: Mapping[str, object]

    # -- aggregate views -------------------------------------------------

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def cached(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def degraded(self) -> int:
        return sum(1 for r in self.results if r.degraded)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == farm_report.STATUS_ERROR)

    @property
    def quarantined(self) -> int:
        return sum(1 for r in self.results if r.quarantined)

    @property
    def audited(self) -> int:
        return sum(1 for r in self.results if r.audit is not None)

    @property
    def audit_refuted(self) -> int:
        """Refuted-and-unrepaired audits (from the document's already
        aggregated ``audit`` section, so the exit-code rule matches the
        live farm report's exactly)."""
        audit = self.document.get("audit")
        if isinstance(audit, Mapping):
            return int(audit.get("refuted", 0))  # type: ignore[arg-type]
        return 0

    def exit_code(
        self,
        timeout: Optional[float] = None,
        budget: Optional[int] = None,
    ) -> int:
        """The CLI exit code this batch maps to (see ``repro.farm.report``)."""
        return farm_report.exit_code(self, timeout=timeout, budget=budget)

    def summary_table(self) -> str:
        """The human summary table, rendered from the report document."""
        return farm_report.summary_from_document(dict(self.document))

    @classmethod
    def from_farm_report(cls, report: _FarmBatchReport) -> "BatchReport":
        return cls(
            scenario=report.scenario,
            workers=report.workers,
            wall_s=report.wall_s,
            results=tuple(
                ExplainResult.from_job_result(result) for result in report.results
            ),
            document=report.to_dict(),
        )

    def payload(self) -> Dict[str, object]:
        return {
            "schema": API_BATCH_SCHEMA,
            "scenario": self.scenario,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "results": [result.payload() for result in self.results],
            "document": dict(self.document),
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "BatchReport":
        results = payload.get("results")
        _expect(isinstance(results, list), "batch results must be a list")
        assert isinstance(results, list)
        document = payload.get("document")
        _expect(isinstance(document, Mapping), "batch document must be an object")
        assert isinstance(document, Mapping)
        try:
            return cls(
                scenario=str(payload["scenario"]),
                workers=int(payload["workers"]),  # type: ignore[arg-type]
                wall_s=float(payload["wall_s"]),  # type: ignore[arg-type]
                results=tuple(
                    ExplainResult.from_payload(result) for result in results
                ),
                document=dict(document),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ApiError):
                raise
            raise ApiError(f"malformed batch report: {exc}")

    @classmethod
    def from_json(cls, text: str) -> "BatchReport":
        return cls.from_payload(_decode(text, API_BATCH_SCHEMA))


# ---------------------------------------------------------------------------
# JobStatus


@dataclass(frozen=True)
class JobStatus:
    """A lifecycle snapshot of one submitted batch."""

    id: str
    state: str
    tenant: str = "public"
    scenario: str = ""
    total: int = 0
    settled: int = 0
    ok: int = 0
    degraded: int = 0
    failed: int = 0
    quarantined: int = 0
    cached: int = 0
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    exit_code: Optional[int] = None

    def __post_init__(self) -> None:
        _expect(self.state in _STATES, f"unknown job state {self.state!r}")

    @property
    def terminal(self) -> bool:
        return self.state in (STATE_DONE, STATE_FAILED, STATE_DRAINED)

    def payload(self) -> Dict[str, object]:
        data: Dict[str, object] = {"schema": API_STATUS_SCHEMA}
        for f in dataclass_fields(self):
            data[f.name] = getattr(self, f.name)
        return data

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "JobStatus":
        data = {k: v for k, v in payload.items() if k != "schema"}
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        _expect(not unknown, f"unknown status keys: {sorted(unknown)}")
        try:
            return cls(**data)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ApiError(f"malformed status: {exc}")

    @classmethod
    def from_json(cls, text: str) -> "JobStatus":
        return cls.from_payload(_decode(text, API_STATUS_SCHEMA))


# ---------------------------------------------------------------------------
# Execution


def explain_batch(
    request: ExplainRequest,
    progress: Optional[Callable[[JobResult], None]] = None,
    stop: Optional[threading.Event] = None,
    chaos: Optional[Any] = None,
    fleet: Optional[Any] = None,
) -> BatchReport:
    """Execute one request end to end and return the typed report.

    This is the one code path under the CLI's ``explain-all`` and the
    server's ``POST /v1/jobs``: enumerate the jobs, run the supervised
    farm, wrap the outcome.  A ``since`` request settles the jobs its
    edit left clean from the store and dispatches only the rest.
    ``progress`` is invoked per settled job in the calling thread;
    ``stop`` drains the batch at the next family boundary.
    ``chaos`` (a :class:`repro.runtime.ChaosPlan`) is an execution-side
    fault-injection knob, deliberately not part of the request schema;
    so is ``fleet`` (a :class:`repro.farm.fleet.WorkerFleet`), the
    serving layer's long-lived worker pool -- where the batch runs is
    an operator decision, never the requester's.
    """
    request.validate()
    config, specification = resolve_inputs(request)
    cache_dir = None if request.no_cache else request.cache_dir
    jobs = enumerate_jobs(
        config, specification, per_line=request.per_line, fields=request.fields
    )
    if not jobs:
        empty = _FarmBatchReport(
            scenario=request.name, results=[], workers=request.workers,
            wall_s=0.0,
        )
        return BatchReport.from_farm_report(empty)
    since: Optional[NetworkConfig] = None
    if request.since is not None:
        _expect(cache_dir is not None, "incremental requests need a cache_dir")
        from .bgp.confparse import parse_network

        try:
            since = parse_network(request.since, config.topology)
        except Exception as exc:
            raise ApiError(f"unparsable since config: {exc}")
    policy = request.policy()
    if chaos is not None:
        policy = replace(policy, chaos=chaos)
    farm = run_supervised(
        config, specification, jobs,
        options=request.options(), cache_dir=cache_dir,
        workers=request.workers, timeout=request.timeout,
        budget=request.budget, scenario=request.name,
        policy=policy, share=request.share,
        progress=progress, stop=stop, fleet=fleet, since=since,
    )
    return BatchReport.from_farm_report(farm)
