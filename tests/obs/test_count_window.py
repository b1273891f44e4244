"""``CountWindow`` against a bounded-deque recount of interval deltas.

The window keeps a running sum (add the new delta, subtract the evicted
one).  The reference here keeps every delta in a ``deque(maxlen=w)`` and
re-sums it from scratch after each interval, handling a registry reset
(a reading below the last one counts whole), a bucket-layout change
(the older deltas are dropped) and a window resize on its own.
"""

from collections import deque

import numpy as np

from repro.obs.attribution import BUDGET_STREAM_BUCKETS, BudgetTracker
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import (
    CountWindow,
    LatencyObjective,
    SLOMonitor,
    _percentile_from_buckets,
)


class _Recount:
    def __init__(self, size):
        self.deltas = deque(maxlen=size)
        self.last = None

    def push(self, reading, size):
        reading = list(reading)
        if self.last is None or len(self.last) != len(reading) or any(
            c < p for c, p in zip(reading, self.last)
        ):
            delta = reading
        else:
            delta = [c - p for c, p in zip(reading, self.last)]
        if self.deltas and len(self.deltas[0]) != len(reading):
            self.deltas.clear()
        if self.deltas.maxlen != size:
            self.deltas = deque(self.deltas, maxlen=size)
        self.last = reading
        self.deltas.append(delta)
        return [sum(d[i] for d in self.deltas) for i in range(len(reading))]


def test_window_matches_a_deque_recount_over_100_intervals():
    rng = np.random.default_rng(11)
    fine = Histogram("fine", BUDGET_STREAM_BUCKETS)
    coarse = Histogram("coarse")  # the default layout: fewer buckets
    window, ref = CountWindow(), _Recount(5)
    hist, size = fine, 5
    for interval in range(100):
        if interval == 40:
            hist.reset()  # cumulative counts drop: the reading counts whole
        if interval == 70:
            hist = coarse  # bucket layout changes underneath the window
        if interval == 85:
            size = 3
        hist.observe_many(rng.lognormal(-1.0, 1.0, size=rng.integers(0, 40)))
        got = window.push(hist.bucket_counts(), size)
        want = ref.push(hist.bucket_counts(), size)
        assert got == want, interval
        assert len(window) == len(ref.deltas)
        assert all(type(c) is int for c in got)


def test_counter_pairs_reset_like_the_deque():
    rng = np.random.default_rng(5)
    window, ref = CountWindow(), _Recount(4)
    errors = total = 0
    for interval in range(100):
        if interval in (30, 31, 77):
            errors = total = 0  # registry reset
        n = int(rng.integers(0, 50))
        total += n
        errors += int(rng.integers(0, n + 1))
        assert window.push((errors, total), 4) == ref.push((errors, total), 4)


def test_monitor_and_tracker_judge_the_recounted_window():
    """SLOMonitor's observed percentile and BudgetTracker's consumed
    percentile are the percentiles of the recounted window."""

    class _Alloc:
        sla, target, slack, feasible, expression = 3.0, 0.1, 1.0, True, "a"
        budgets = (type("SB", (), {"service": "a", "budget": 0.5})(),)

    reg = MetricsRegistry()
    obj = LatencyObjective("p90", "resp", threshold_seconds=1.0, percentile=90.0)
    tracker = BudgetTracker(_Alloc(), stream_pattern="svc.{service}", window=2)
    mon = SLOMonitor([obj], registry=reg, window=3, budget_tracker=tracker)
    ref_resp, ref_svc = _Recount(3), _Recount(2)
    rng = np.random.default_rng(3)
    resp = reg.histogram("resp")
    svc = reg.histogram("svc.a", buckets=BUDGET_STREAM_BUCKETS)
    for interval in range(30):
        if interval == 12:
            reg.reset()
        resp.observe_many(rng.lognormal(0.0, 0.5, size=25))
        svc.observe_many(rng.lognormal(-1.0, 0.5, size=25))
        mon.evaluate()
        want_resp = _percentile_from_buckets(
            resp.buckets, ref_resp.push(resp.bucket_counts(), 3), 90.0
        )
        want_svc = _percentile_from_buckets(
            svc.buckets, ref_svc.push(svc.bucket_counts(), 2), 95.0
        )
        assert mon.status()["objectives"][0]["observed"] == want_resp
        assert tracker.ranking()[0]["consumed"] == want_svc
