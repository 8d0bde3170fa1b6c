"""Plain-text metrics exposition (the server's ``GET /v1/metrics``).

Renders a :class:`~repro.obs.metrics.MetricsRegistry` in the
Prometheus text exposition format, version ``0.0.4`` -- one
``name value`` sample per line, ``# TYPE`` comments, histograms as
summary quantiles.  Only the subset of the format the registry can
express is emitted; there are no timestamps and no labels except the
``quantile`` label on histogram summaries, so scraping the endpoint
twice during an idle server returns byte-identical bodies.

Metric names are sanitized to the exposition grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``): the registry's dotted names
(``farm.store.hit.readset``) become underscored (``farm_store_hit_readset``)
with a ``repro_`` prefix to keep the namespace honest.
"""

from __future__ import annotations

from typing import List

from .metrics import MetricsRegistry, percentile

__all__ = ["CONTENT_TYPE", "render_metrics", "sanitize_metric_name"]

#: The content type scrapers expect for this body.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_ALLOWED = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def sanitize_metric_name(name: str) -> str:
    """``name`` rewritten into the exposition grammar, ``repro_``-prefixed."""
    cleaned = "".join(c if c in _ALLOWED else "_" for c in name)
    if not cleaned or cleaned[0] in "0123456789":
        cleaned = "_" + cleaned
    return f"repro_{cleaned}"


def _format_value(value: float) -> str:
    # Integral floats print as integers so counters stay counters.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_metrics(metrics: MetricsRegistry) -> str:
    """The full text-exposition body for ``metrics``.

    Counters first, then gauges, then histogram summaries, each group
    name-sorted -- a deterministic function of the registry contents.
    The registry is copied under its lock first, so a scrape never
    iterates an instrument another thread is writing.
    """
    metrics = MetricsRegistry().merge(metrics)
    lines: List[str] = []
    for name in sorted(metrics.counters):
        exposed = sanitize_metric_name(name)
        lines.append(f"# TYPE {exposed} counter")
        lines.append(f"{exposed} {_format_value(metrics.counters[name])}")
    for name in sorted(metrics.gauges):
        exposed = sanitize_metric_name(name)
        lines.append(f"# TYPE {exposed} gauge")
        lines.append(f"{exposed} {_format_value(metrics.gauges[name])}")
    for name in metrics.histogram_names:
        samples = metrics.samples(name)
        if not samples:
            continue
        exposed = sanitize_metric_name(name)
        lines.append(f"# TYPE {exposed} summary")
        for q in (0.5, 0.95):
            lines.append(
                f'{exposed}{{quantile="{q}"}} '
                f"{_format_value(percentile(samples, q))}"
            )
        lines.append(f"{exposed}_sum {_format_value(sum(samples))}")
        lines.append(f"{exposed}_count {len(samples)}")
    return "\n".join(lines) + "\n" if lines else ""
