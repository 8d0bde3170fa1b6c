"""Observability: span tracing, work metrics and BENCH.json export.

This package sits beside :mod:`repro.runtime` at the bottom of the
dependency stack (its core imports nothing from the rest of the
repository) and provides:

* :class:`Tracer` / :class:`Span` -- nested, exception-safe span
  timing on a monotonic clock,
* :class:`MetricsRegistry` -- counters, gauges and histograms with
  well-defined merge semantics,
* :class:`Instrumentation` -- the bundle the hot paths thread through
  (``obs: Optional[Instrumentation]``), with automatic stage
  attribution and a :class:`~repro.runtime.Governor` checkpoint
  piggyback,
* the schema-versioned ``BENCH.json`` exporter and the regression
  comparator behind ``python -m repro.cli bench``.

Everything here is passive: an instrumented run produces byte-identical
pipeline outputs to an uninstrumented one.  See
``docs/observability.md`` for the span/metric inventory and the JSON
schema.
"""

from .export import (
    BenchReport,
    CompareResult,
    Experiment,
    SCHEMA_VERSION,
    SchemaError,
    StageRecord,
    StageVerdict,
    append_experiment,
    compare_reports,
    load_report,
    stage_records,
    validate_report,
    write_report,
)
from .expose import CONTENT_TYPE as METRICS_CONTENT_TYPE
from .expose import render_metrics, sanitize_metric_name
from .instrument import Instrumentation, SPAN_PREFIX
from .metrics import MetricsRegistry, percentile
from .tracer import Span, Tracer

__all__ = [
    "METRICS_CONTENT_TYPE",
    "render_metrics",
    "sanitize_metric_name",
    "Span",
    "Tracer",
    "MetricsRegistry",
    "percentile",
    "Instrumentation",
    "SPAN_PREFIX",
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
