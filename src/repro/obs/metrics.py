"""Counters, gauges and histograms for pipeline work accounting.

A :class:`MetricsRegistry` is a plain in-process store with three
instrument kinds:

* **counters** -- monotonically accumulated integers (SAT conflicts,
  rewrite-rule firings, models enumerated, cache hits, ...),
* **gauges** -- last-writer-wins floats (sizes, ratios),
* **histograms** -- raw observation lists from which summary statistics
  (median, p95, ...) are computed on demand.

Merge semantics (used by the bench runner to fold per-iteration
registries into one): counters add, gauges take the merged-in value,
histograms concatenate.

A registry is safe to share between threads: the serving layer's HTTP
handler threads and batch-runner threads record into one registry
while ``/v1/metrics`` scrapes it.  Every write, ``merge`` and
``snapshot`` holds the registry's lock; readers that need several
instruments at once take a consistent copy with
``MetricsRegistry().merge(registry)``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

__all__ = ["MetricsRegistry", "percentile"]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``samples`` with linear interpolation.

    ``q`` is a fraction in ``[0, 1]`` (``0.5`` = median).  Raises
    :class:`ValueError` on an empty sample set.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


class MetricsRegistry:
    """In-process counters, gauges and histograms (thread-safe)."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}
        self._lock = threading.Lock()

    def _copy(self) -> Tuple[Dict[str, int], Dict[str, float], Dict[str, List[float]]]:
        """(counters, gauges, histograms), copied under the lock."""
        with self._lock:
            return (
                dict(self.counters),
                dict(self.gauges),
                {name: list(samples) for name, samples in self._histograms.items()},
            )

    def __getstate__(self) -> Dict[str, object]:
        # Registries cross process boundaries inside job results; a
        # lock cannot be pickled, so the copy gets a fresh one.
        counters, gauges, histograms = self._copy()
        return {"counters": counters, "gauges": gauges, "_histograms": histograms}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to counter ``name``; returns the new value."""
        with self._lock:
            value = self.counters.get(name, 0) + amount
            self.counters[name] = value
        return value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last writer wins)."""
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        with self._lock:
            self._histograms.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def samples(self, name: str) -> Tuple[float, ...]:
        """The raw observations of histogram ``name`` (empty if unknown)."""
        with self._lock:
            return tuple(self._histograms.get(name, ()))

    @property
    def histogram_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._histograms))

    def histogram_stats(self, name: str) -> Dict[str, float]:
        """Summary statistics of histogram ``name``.

        Returns ``count``, ``min``, ``max``, ``mean``, ``p50`` and
        ``p95``; raises :class:`KeyError` for an unknown histogram.
        """
        samples = self.samples(name)
        if not samples:
            raise KeyError(f"unknown or empty histogram {name!r}")
        return {
            "count": float(len(samples)),
            "min": min(samples),
            "max": max(samples),
            "mean": sum(samples) / len(samples),
            "p50": percentile(samples, 0.50),
            "p95": percentile(samples, 0.95),
        }

    # ------------------------------------------------------------------
    # Merge + export
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry; returns ``self``.

        Counters add, gauges take ``other``'s value, histograms
        concatenate (``other``'s samples appended after this one's).
        ``other`` is copied under its own lock first, so the two locks
        are never held together.
        """
        counters, gauges, histograms = other._copy()
        with self._lock:
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
            self.gauges.update(gauges)
            for name, samples in histograms.items():
                self._histograms.setdefault(name, []).extend(samples)
        return self

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of every instrument, taken
        consistently under the lock."""
        copy = MetricsRegistry().merge(self)
        return {
            "counters": dict(sorted(copy.counters.items())),
            "gauges": dict(sorted(copy.gauges.items())),
            "histograms": {
                name: copy.histogram_stats(name) for name in copy.histogram_names
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MetricsRegistry({len(self.counters)} counters, "
            f"{len(self.gauges)} gauges, {len(self._histograms)} histograms)"
        )
