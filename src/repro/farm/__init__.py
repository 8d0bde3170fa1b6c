"""repro.farm: the parallel batch-explanation service.

Explaining every managed router of a scenario re-runs the same
pipeline many times over inputs that barely change between invocations,
so the farm wraps the :class:`~repro.explain.ExplanationEngine` in a
build-system shell:

* :mod:`repro.farm.job` -- one :class:`ExplainJob` per (device,
  granularity, requirement) question, enumerated from a specification;
* :mod:`repro.farm.keys` -- a deterministic content-addressed key per
  job, derived from everything the job's *own* inputs pin down
  (topology, specification, the device's rendered configuration and
  symbolized hole domains, engine options);
* :mod:`repro.farm.readset` -- a recorder for the rest-of-network
  slice a job actually reads (every route-map transfer at the symbolic
  and concrete seams), stored next to the answer;
* :mod:`repro.farm.store` -- the persistent on-disk artifact store
  with schema versions and integrity hashes, memoizing per-stage
  pipeline artifacts so interrupted runs resume mid-pipeline;
* :mod:`repro.farm.invalidate` -- incremental invalidation: replaying
  a stored read-set against an edited configuration decides whether a
  cached answer is still exact, so a one-device edit re-runs only that
  device's jobs;
* :mod:`repro.farm.worker` / :mod:`repro.farm.pool` -- the per-job
  runner (governed, gracefully degrading) and the process pool that
  fans work out and folds per-worker metrics into one report.
  Dispatch is per :class:`JobFamily` -- the per-line questions of one
  (device, requirement block) run back to back in one worker against
  the shared caches of :mod:`repro.explain.family`;
* :mod:`repro.farm.supervise` -- the fault-tolerant supervisor:
  per-job hang watchdog, retry with capped backoff + deterministic
  jitter for transient failures, a quarantine ledger for jobs that
  exhaust their retries, and a crash-safe run journal that lets a
  killed batch ``--resume`` with only its unfinished jobs.

The CLI front-end is ``python -m repro.cli explain-all``; see
``docs/farm.md`` for the architecture.
"""

import warnings
from typing import Any

from .fleet import FleetStats, WorkerFleet
from .invalidate import compute_dirty, readset_valid, sketch_universe
from .job import ExplainJob, JobFamily, enumerate_jobs, group_families
from .keys import FarmOptions, canonical_json, digest, job_key
from .pool import BatchReport
from .readset import TransferRecorder
from .report import (
    EXIT_BUDGET,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_TIMEOUT,
    REPORT_SCHEMA,
    STATUS_CACHED,
    STATUS_DEGRADED_LIFT,
    STATUS_DEGRADED_RAW,
    STATUS_ERROR,
    STATUS_EXACT,
    STATUS_FAILED,
    STATUS_QUARANTINED,
    normalize_document,
)
from .store import ArtifactStore, JobStore, StoreError, StoredPayload
from .supervise import (
    RunJournal,
    SupervisePolicy,
    Supervisor,
    batch_signature,
)
from .worker import (
    JobResult,
    reset_shared_slot,
    run_family,
    run_job,
    shared_batch_key,
)

# The batch entrypoints moved behind the typed facade in ``repro.api``
# (``explain_batch`` and friends); importing them from the farm root is
# deprecated for one release.  PEP 562 module ``__getattr__`` keeps
# ``from repro.farm import run_batch`` working -- with a warning --
# while internal callers import from ``.pool`` / ``.supervise``
# directly and stay silent.
_DEPRECATED_ENTRYPOINTS = {
    "run_batch": ("pool", "repro.api.explain_batch"),
    "run_incremental": ("pool", "repro.api.explain_batch (with since=...)"),
    "run_supervised": ("supervise", "repro.api.explain_batch"),
}


def __getattr__(name: str) -> Any:
    moved = _DEPRECATED_ENTRYPOINTS.get(name)
    if moved is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule, replacement = moved
    warnings.warn(
        f"importing {name!r} from repro.farm is deprecated; "
        f"use {replacement} or repro.farm.{submodule}.{name}",
        DeprecationWarning,
        stacklevel=2,
    )
    import importlib

    return getattr(importlib.import_module(f".{submodule}", __name__), name)


__all__ = [
    "ExplainJob",
    "JobFamily",
    "enumerate_jobs",
    "group_families",
    "FarmOptions",
    "canonical_json",
    "digest",
    "job_key",
    "TransferRecorder",
    "ArtifactStore",
    "JobStore",
    "StoreError",
    "StoredPayload",
    "compute_dirty",
    "readset_valid",
    "sketch_universe",
    "JobResult",
    "FleetStats",
    "WorkerFleet",
    "reset_shared_slot",
    "run_family",
    "run_job",
    "shared_batch_key",
    "BatchReport",
    "run_batch",
    "run_incremental",
    "RunJournal",
    "SupervisePolicy",
    "Supervisor",
    "batch_signature",
    "run_supervised",
    "REPORT_SCHEMA",
    "STATUS_EXACT",
    "STATUS_DEGRADED_LIFT",
    "STATUS_DEGRADED_RAW",
    "STATUS_FAILED",
    "STATUS_ERROR",
    "STATUS_CACHED",
    "STATUS_QUARANTINED",
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_TIMEOUT",
    "EXIT_BUDGET",
    "EXIT_PARTIAL",
    "normalize_document",
]
