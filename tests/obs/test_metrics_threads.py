"""A shared registry under concurrent writers and scrapers.

The server's HTTP handler threads and batch-runner threads record into
one :class:`MetricsRegistry` while ``/v1/metrics`` renders it.  No
increment may be lost and no scrape may fail or see a counter go
backwards.  Registries also cross process boundaries pickled, which
the registry's lock must not prevent.
"""

import pickle
import sys
import threading

import pytest

from repro.obs import MetricsRegistry, render_metrics

THREADS = 8
INCREMENTS = 10_000


@pytest.fixture
def fast_switching():
    """Switch threads as often as the interpreter allows, so an
    unguarded read-modify-write would interleave."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def run_all(threads):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "a thread did not finish"


def test_concurrent_counts_lose_nothing_while_scraped(fast_switching):
    registry = MetricsRegistry()
    start = threading.Barrier(THREADS + 1)
    done = threading.Event()
    scraped = []
    errors = []

    def writer(index):
        start.wait()
        for step in range(INCREMENTS):
            registry.count("jobs")
            registry.count(f"jobs.{index}")
            if step % 1000 == 0:
                registry.observe("latency", float(step))
                registry.gauge("last", float(step))

    def scraper():
        start.wait()
        while not done.is_set():
            try:
                render_metrics(registry)
                scraped.append(registry.snapshot()["counters"].get("jobs", 0))
            except Exception as exc:  # noqa: BLE001 - any failure is the bug
                errors.append(exc)
                return

    writers = [threading.Thread(target=writer, args=(i,)) for i in range(THREADS)]
    reader = threading.Thread(target=scraper)
    reader.start()
    run_all(writers)
    done.set()
    reader.join(timeout=60)
    assert not reader.is_alive(), "the scraper did not finish"

    assert errors == []
    assert registry.counters["jobs"] == THREADS * INCREMENTS
    for index in range(THREADS):
        assert registry.counters[f"jobs.{index}"] == INCREMENTS
    assert len(registry.samples("latency")) == THREADS * (INCREMENTS // 1000)
    assert scraped, "the scraper never ran"
    assert scraped == sorted(scraped)


def test_concurrent_merges_lose_nothing(fast_switching):
    total = MetricsRegistry()
    part = MetricsRegistry()
    part.count("jobs", 3)
    part.observe("latency", 1.0)

    def merger():
        for _ in range(500):
            total.merge(part)

    run_all([threading.Thread(target=merger) for _ in range(THREADS)])
    assert total.counters["jobs"] == 3 * 500 * THREADS
    assert len(total.samples("latency")) == 500 * THREADS


def test_pickle_round_trip_keeps_every_instrument_and_a_working_lock():
    registry = MetricsRegistry()
    registry.count("jobs", 2)
    registry.gauge("ratio", 0.5)
    registry.observe("latency", 1.5)
    registry.observe("latency", 2.5)
    clone = pickle.loads(pickle.dumps(registry))
    assert clone.snapshot() == registry.snapshot()
    assert clone.samples("latency") == (1.5, 2.5)
    # The clone is independent and records under its own lock.
    assert clone._lock is not registry._lock
    clone.count("jobs")
    assert clone.counters["jobs"] == 3
    assert registry.counters["jobs"] == 2
    assert pickle.loads(pickle.dumps(clone)).counters == {"jobs": 3}
