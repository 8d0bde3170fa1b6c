"""Schema-versioned ``BENCH.json`` reports: write, load, append, compare.

This module owns the one on-disk format shared by the bench runner
(``python -m repro.cli bench``) and the pytest benchmark suite
(``benchmarks/conftest.py``):

.. code-block:: json

    {
      "schema": "repro-bench/1",
      "source": "repro.cli bench",
      "quick": true,
      "repeat": 2,
      "calibration_s": 0.0123,
      "stages": [
        {"scenario": "scenario1", "stage": "seed", "runs": 6,
         "median_s": 0.004, "p95_s": 0.006, "total_s": 0.026,
         "counters": {"encode.candidates": 252, "sat.conflicts": 0}}
      ],
      "experiments": [
        {"title": "FIG-2 subspecification at R1", "rows": ["..."]}
      ]
    }

``calibration_s`` is the wall time of a fixed pure-Python workload
measured on the producing machine; :func:`compare_reports` uses the
ratio of calibrations to normalize baseline timings recorded on
different hardware before applying the regression tolerance.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .instrument import SPAN_PREFIX
from .metrics import MetricsRegistry, percentile

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "StageRecord",
    "stage_records",
    "Experiment",
    "BenchReport",
    "validate_report",
    "load_report",
    "write_report",
    "append_experiment",
    "StageVerdict",
    "CompareResult",
    "compare_reports",
]

SCHEMA_VERSION = "repro-bench/1"

#: Regressions smaller than this absolute wall-time delta are ignored;
#: micro-stage medians jitter far more than 25% between runs.
DEFAULT_MIN_DELTA_S = 0.02

#: Calibration ratios are clamped to this range so a corrupt
#: calibration cannot silence (or fabricate) a regression entirely.
_CALIBRATION_CLAMP = (0.25, 4.0)


class SchemaError(ValueError):
    """A document does not conform to the ``repro-bench`` schema."""


@dataclass
class StageRecord:
    """Aggregated timings and work counters for one pipeline stage."""

    scenario: str
    stage: str
    runs: int
    median_s: float
    p95_s: float
    total_s: float
    counters: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "stage": self.stage,
            "runs": self.runs,
            "median_s": self.median_s,
            "p95_s": self.p95_s,
            "total_s": self.total_s,
            "counters": dict(sorted(self.counters.items())),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StageRecord":
        return cls(
            scenario=str(data["scenario"]),
            stage=str(data["stage"]),
            runs=int(data["runs"]),  # type: ignore[call-overload]
            median_s=float(data["median_s"]),  # type: ignore[arg-type]
            p95_s=float(data["p95_s"]),  # type: ignore[arg-type]
            total_s=float(data["total_s"]),  # type: ignore[arg-type]
            counters={
                str(name): int(value)
                for name, value in dict(data.get("counters") or {}).items()  # type: ignore[call-overload]
            },
        )


def stage_records(scenario: str, metrics: MetricsRegistry) -> List[StageRecord]:
    """Per-stage records from one merged registry, sorted by stage.

    One record per ``span:<stage>`` histogram; its counters are the
    stage-attributed counters with the ``<stage>:`` prefix stripped,
    totalled over *all* runs (the pipeline is deterministic, so
    per-run work is the total divided by ``runs``).
    """
    records: List[StageRecord] = []
    for name in metrics.histogram_names:
        if not name.startswith(SPAN_PREFIX):
            continue
        stage = name[len(SPAN_PREFIX):]
        samples = metrics.samples(name)
        counters = {
            counter[len(stage) + 1:]: value
            for counter, value in metrics.counters.items()
            if counter.startswith(stage + ":")
        }
        records.append(
            StageRecord(
                scenario=scenario,
                stage=stage,
                runs=len(samples),
                median_s=percentile(samples, 0.50),
                p95_s=percentile(samples, 0.95),
                total_s=sum(samples),
                counters=counters,
            )
        )
    records.sort(key=lambda record: record.stage)
    return records


@dataclass
class Experiment:
    """One pytest-benchmark experiment table (title plus printed rows)."""

    title: str
    rows: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {"title": self.title, "rows": list(self.rows)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Experiment":
        return cls(
            title=str(data["title"]),
            rows=[str(row) for row in list(data.get("rows") or [])],  # type: ignore[call-overload]
        )


@dataclass
class BenchReport:
    """The in-memory form of a ``BENCH.json`` document."""

    stages: List[StageRecord] = field(default_factory=list)
    experiments: List[Experiment] = field(default_factory=list)
    source: str = "repro.obs"
    quick: bool = False
    repeat: int = 1
    calibration_s: Optional[float] = None
    schema: str = SCHEMA_VERSION

    def stage(self, scenario: str, stage: str) -> Optional[StageRecord]:
        for record in self.stages:
            if record.scenario == scenario and record.stage == stage:
                return record
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "source": self.source,
            "quick": self.quick,
            "repeat": self.repeat,
            "calibration_s": self.calibration_s,
            "stages": [record.to_dict() for record in self.stages],
            "experiments": [experiment.to_dict() for experiment in self.experiments],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_dict(cls, data: object) -> "BenchReport":
        validate_report(data)
        assert isinstance(data, dict)
        calibration = data.get("calibration_s")
        return cls(
            stages=[StageRecord.from_dict(record) for record in data["stages"]],
            experiments=[
                Experiment.from_dict(experiment)
                for experiment in data.get("experiments", [])
            ],
            source=str(data.get("source", "unknown")),
            quick=bool(data.get("quick", False)),
            repeat=int(data.get("repeat", 1)),
            calibration_s=float(calibration) if calibration is not None else None,
            schema=str(data["schema"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def validate_report(data: object) -> None:
    """Raise :class:`SchemaError` unless ``data`` is a valid report."""
    if not isinstance(data, dict):
        raise SchemaError(f"report must be a JSON object, got {type(data).__name__}")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema {schema!r}; this build reads {SCHEMA_VERSION!r}"
        )
    stages = data.get("stages")
    if not isinstance(stages, list):
        raise SchemaError("report is missing the 'stages' list")
    for index, record in enumerate(stages):
        if not isinstance(record, dict):
            raise SchemaError(f"stages[{index}] must be an object")
        for key in ("scenario", "stage", "runs", "median_s", "p95_s", "total_s"):
            if key not in record:
                raise SchemaError(f"stages[{index}] is missing {key!r}")
        for key in ("runs", "median_s", "p95_s", "total_s"):
            if not isinstance(record[key], (int, float)) or isinstance(
                record[key], bool
            ):
                raise SchemaError(f"stages[{index}].{key} must be a number")
        counters = record.get("counters", {})
        if not isinstance(counters, dict):
            raise SchemaError(f"stages[{index}].counters must be an object")
    experiments = data.get("experiments", [])
    if not isinstance(experiments, list):
        raise SchemaError("'experiments' must be a list")
    for index, experiment in enumerate(experiments):
        if not isinstance(experiment, dict) or "title" not in experiment:
            raise SchemaError(f"experiments[{index}] must be an object with a title")


def load_report(path: str) -> BenchReport:
    """Load and validate a report from ``path``."""
    with open(path) as handle:
        return BenchReport.from_json(handle.read())


def write_report(report: BenchReport, path: str) -> None:
    """Write ``report`` to ``path`` (creating parent directories)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(report.to_json())


def append_experiment(
    path: str,
    title: str,
    rows: Sequence[str],
    source: str = "pytest-benchmarks",
) -> BenchReport:
    """Append one experiment table to the report at ``path``.

    The file is created (with ``source``) when missing or invalid, so
    a stale or foreign file never aborts a benchmark session.  An
    experiment with the same title is replaced, keeping re-runs of a
    benchmark module idempotent.  Returns the written report.
    """
    report: Optional[BenchReport] = None
    if os.path.exists(path):
        try:
            report = load_report(path)
        except (OSError, SchemaError):
            report = None
    if report is None:
        report = BenchReport(source=source)
    report.experiments = [
        experiment for experiment in report.experiments if experiment.title != title
    ]
    report.experiments.append(Experiment(title=title, rows=[str(row) for row in rows]))
    write_report(report, path)
    return report


# ----------------------------------------------------------------------
# Comparison / the regression gate
# ----------------------------------------------------------------------


@dataclass
class StageVerdict:
    """The comparison outcome for one (scenario, stage) pair.

    ``status`` is one of ``"ok"``, ``"improvement"``, ``"regression"``,
    ``"missing"`` (in the baseline but absent from the current report)
    or ``"new"`` (absent from the baseline).  ``baseline_s`` is the
    calibration-scaled baseline median.
    """

    scenario: str
    stage: str
    status: str
    baseline_s: Optional[float] = None
    current_s: Optional[float] = None
    ratio: Optional[float] = None

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "missing")

    def render(self) -> str:
        def fmt(value: Optional[float]) -> str:
            return f"{value * 1000:.1f}ms" if value is not None else "-"

        ratio = f"x{self.ratio:.2f}" if self.ratio is not None else "-"
        return (
            f"{self.status.upper():<12} {self.scenario}/{self.stage}: "
            f"{fmt(self.baseline_s)} -> {fmt(self.current_s)} ({ratio})"
        )


@dataclass
class CompareResult:
    """All stage verdicts of one baseline comparison."""

    verdicts: List[StageVerdict]
    tolerance: float
    scale: float

    @property
    def ok(self) -> bool:
        return not any(verdict.failed for verdict in self.verdicts)

    @property
    def regressions(self) -> List[StageVerdict]:
        return [verdict for verdict in self.verdicts if verdict.failed]

    def render(self) -> str:
        lines = [
            f"baseline comparison (tolerance {self.tolerance:.0%}, "
            f"calibration scale x{self.scale:.2f}):"
        ]
        for verdict in self.verdicts:
            lines.append("  " + verdict.render())
        lines.append("verdict: " + ("OK" if self.ok else "REGRESSION"))
        return "\n".join(lines)


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    tolerance: float = 0.25,
    min_delta_s: float = DEFAULT_MIN_DELTA_S,
) -> CompareResult:
    """Compare ``current`` against ``baseline`` stage by stage.

    A stage *regresses* when its median exceeds the (calibration-
    scaled) baseline median by more than ``tolerance`` relatively AND
    ``min_delta_s`` absolutely; it *improves* symmetrically.  A stage
    present in the baseline but missing from ``current`` fails the
    comparison (``"missing"``); stages new in ``current`` pass.
    """
    scale = 1.0
    if current.calibration_s and baseline.calibration_s:
        scale = current.calibration_s / baseline.calibration_s
        scale = max(_CALIBRATION_CLAMP[0], min(_CALIBRATION_CLAMP[1], scale))

    verdicts: List[StageVerdict] = []
    seen = set()
    for base in baseline.stages:
        seen.add((base.scenario, base.stage))
        record = current.stage(base.scenario, base.stage)
        expected = base.median_s * scale
        if record is None:
            verdicts.append(
                StageVerdict(base.scenario, base.stage, "missing", baseline_s=expected)
            )
            continue
        delta = record.median_s - expected
        ratio = record.median_s / expected if expected > 0 else None
        if delta > tolerance * expected and delta > min_delta_s:
            status = "regression"
        elif -delta > tolerance * expected and -delta > min_delta_s:
            status = "improvement"
        else:
            status = "ok"
        verdicts.append(
            StageVerdict(
                base.scenario,
                base.stage,
                status,
                baseline_s=expected,
                current_s=record.median_s,
                ratio=ratio,
            )
        )
    for record in current.stages:
        if (record.scenario, record.stage) not in seen:
            verdicts.append(
                StageVerdict(
                    record.scenario, record.stage, "new", current_s=record.median_s
                )
            )
    return CompareResult(verdicts=verdicts, tolerance=tolerance, scale=scale)
