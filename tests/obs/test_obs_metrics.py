"""Unit coverage for repro.obs.metrics: instruments and the registry."""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.dashboard import render_terminal
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


# --------------------------------------------------------------------- #
# Counter / Gauge
# --------------------------------------------------------------------- #


def test_counter_increments_and_rejects_negatives():
    c = Counter("c")
    c.inc()
    c.inc(41)
    assert c.value == 42
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.value == 42  # rejected increment left no trace
    c.reset()
    assert c.value == 0


def test_counter_concurrent_increments_lose_nothing():
    """8 threads x 1000 increments must land exactly 8000 — this is the
    thread-safety contract the concurrent serving counters rely on."""
    c = Counter("hammered")
    n_threads, n_incs = 8, 1000

    def hammer(_):
        for _ in range(n_incs):
            c.inc()

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(hammer, range(n_threads)))
    assert c.value == n_threads * n_incs


def test_gauge_set_and_add():
    g = Gauge("g")
    g.set(2.5)
    g.add(-1.0)
    assert g.value == pytest.approx(1.5)
    g.reset()
    assert g.value == 0.0


# --------------------------------------------------------------------- #
# Histogram edge cases
# --------------------------------------------------------------------- #


def test_histogram_empty():
    h = Histogram("h")
    assert h.count == 0
    assert h.mean is None
    assert h.min is None and h.max is None
    assert h.percentile(50.0) is None
    assert h.summary()["count"] == 0
    assert h.summary()["p99"] is None


def test_histogram_single_sample():
    h = Histogram("h", buckets=(1.0, 2.0, 4.0))
    h.observe(1.7)
    assert h.count == 1
    for q in (0.0, 50.0, 99.0, 100.0):
        assert h.percentile(q) == pytest.approx(1.7)
    s = h.summary()
    assert s["min"] == s["max"] == s["mean"] == pytest.approx(1.7)


def test_histogram_overflow_bucket():
    h = Histogram("h", buckets=(1.0, 2.0))
    h.observe(100.0)
    h.observe(250.0)
    assert h.overflow_count == 2
    assert h.bucket_counts() == (0, 0, 2)
    # No finite upper bound above the last edge: percentiles report max.
    assert h.percentile(99.0) == pytest.approx(250.0)
    assert h.summary()["overflow"] == 2


def test_histogram_percentiles_clamped_to_observed_range():
    h = Histogram("h", buckets=(10.0, 20.0, 30.0))
    for v in (11.0, 12.0, 13.0, 14.0):
        h.observe(v)
    for q in (1.0, 50.0, 99.0):
        p = h.percentile(q)
        assert 11.0 <= p <= 14.0


def test_histogram_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Histogram("h", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", buckets=(2.0, 1.0))
    h = Histogram("h")
    with pytest.raises(ValueError):
        h.percentile(101.0)


def test_histogram_empty_buckets_fall_back_to_defaults():
    assert Histogram("h", buckets=()).buckets == DEFAULT_TIME_BUCKETS


def test_default_time_buckets_are_increasing():
    assert all(
        b2 > b1
        for b1, b2 in zip(DEFAULT_TIME_BUCKETS, DEFAULT_TIME_BUCKETS[1:])
    )
    assert DEFAULT_TIME_BUCKETS[0] == pytest.approx(1e-6)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #


def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.gauge("b") is reg.gauge("b")
    assert reg.histogram("c") is reg.histogram("c")
    assert sorted(reg) == ["a", "b", "c"]


def test_registry_reset_keeps_cached_handles_valid():
    """Call sites cache instrument handles; reset must zero in place."""
    reg = MetricsRegistry()
    handle = reg.counter("cached")
    handle.inc(5)
    reg.reset()
    assert handle.value == 0
    handle.inc()  # the old handle still feeds the registry
    assert reg.snapshot()["counters"]["cached"] == 1


def test_registry_snapshot_and_exporters():
    reg = MetricsRegistry()
    reg.counter("hits").inc(3)
    reg.gauge("load").set(0.75)
    reg.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
    snap = reg.snapshot()
    assert snap["counters"] == {"hits": 3}
    assert snap["gauges"]["load"] == pytest.approx(0.75)
    assert snap["histograms"]["lat"]["count"] == 1
    parsed = json.loads(json.dumps(snap))
    assert parsed["counters"]["hits"] == 3
    text = render_terminal({"metrics": snap})
    assert "hits" in text and "load" in text and "lat  count=1" in text


def test_registry_empty_render():
    text = render_terminal({"metrics": MetricsRegistry().snapshot()})
    assert "-- counters" not in text and "-- histograms" not in text


def test_registry_snapshot_is_atomic_against_reset():
    """A snapshot racing a reset must see all-or-nothing, never a mix.

    Both operations hold the registry lock for their whole sweep, so a
    concurrent snapshot observes either every counter at its pre-reset
    value or every counter zeroed.  To make the race window wide enough
    to catch a regression (per-instrument locking would interleave),
    every Counter.reset is slowed by a tiny sleep.
    """
    import threading
    import time as _time

    from repro.obs import metrics as metrics_mod

    reg = MetricsRegistry()
    n_counters, value = 12, 7
    for i in range(n_counters):
        reg.counter(f"c{i}").inc(value)

    original_reset = metrics_mod.Counter.reset

    def slow_reset(self):
        original_reset(self)
        _time.sleep(0.002)  # widen the sweep so a mixed view would show

    snapshots, stop = [], threading.Event()

    def snapshotter():
        while not stop.is_set():
            snapshots.append(reg.snapshot()["counters"])

    # Only the reset mutates during the snapshot storm, so every
    # snapshot must be uniform: all counters at `value`, or all at 0.
    thread = threading.Thread(target=snapshotter)
    metrics_mod.Counter.reset = slow_reset
    try:
        thread.start()
        _time.sleep(0.005)  # let some pre-reset snapshots accumulate
        reg.reset()
    finally:
        stop.set()
        thread.join()
        metrics_mod.Counter.reset = original_reset

    assert snapshots, "snapshotter thread never ran"
    mixed = [
        snap for snap in snapshots
        if len(set(snap.values())) > 1
    ]
    assert not mixed, (
        f"{len(mixed)} snapshot(s) saw a half-reset registry, e.g. "
        f"{mixed[0]}"
    )
    assert snapshots[-1] == {f"c{i}": 0 for i in range(n_counters)}
