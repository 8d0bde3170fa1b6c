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
* :mod:`repro.farm.worker` -- the per-job runner (governed,
  gracefully degrading).  Dispatch is per :class:`JobFamily` -- the
  per-line questions of one (device, requirement block) run back to
  back in one worker against the shared caches of
  :mod:`repro.explain.family`;
* :mod:`repro.farm.supervise` -- the one batch executor, serial, on a
  per-batch process pool or on a lent :class:`WorkerFleet`: per-job
  hang watchdog, retry with capped backoff + deterministic jitter for
  transient failures, a quarantine ledger for jobs that exhaust their
  retries, a crash-safe run journal that lets a killed batch
  ``--resume`` with only its unfinished jobs, and incremental
  (``since``) runs that settle clean jobs from the store;
* :mod:`repro.farm.pool` -- the :class:`BatchReport` every run
  returns, with per-worker metrics folded into one registry.

The CLI front-end is ``python -m repro.cli explain-all``; see
``docs/farm.md`` for the architecture.
"""

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
    "RunJournal",
    "SupervisePolicy",
    "Supervisor",
    "batch_signature",
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
