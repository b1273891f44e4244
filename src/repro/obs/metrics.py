"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The paper's efficiency story is quantitative — decentralized learning
time is the *max* over per-CPD times (Sec. 3.4), the workflow-derived
CPD removes the most expensive learning step (Sec. 3.3) — so the
runtime needs numbers, not logs.  This module is the zero-dependency
metrics half of :mod:`repro.obs`: a :class:`MetricsRegistry` holding
named :class:`Counter` / :class:`Gauge` / :class:`Histogram`
instruments with snapshot/reset semantics.  :meth:`MetricsRegistry.snapshot`
is the one export: the Prometheus renderer and the dashboard read it.

Design constraints, in order:

- **cheap** — an increment is a dict lookup, a lock, and an integer
  add; the histogram is fixed-bucket so ``observe`` never allocates,
  and ``observe_many`` bins a whole array outside the lock;
- **thread-safe** — the model server counts concurrent queries and the
  chaos suites hammer the serving counters from many threads;
- **reset-in-place** — call sites may cache instrument handles, so
  :meth:`MetricsRegistry.reset` zeroes values without invalidating the
  objects.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple, TypeVar

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
]

#: Log-spaced latency buckets (seconds): 1µs .. 50s plus an overflow
#: bucket.  Wide enough for einsum kernels and whole MAPE cycles alike.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-6, 2) for m in (1.0, 2.5, 5.0)
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (n={n})")
        n = int(n)  # no call inside the lock: a thread switch there stalls
        with self._lock:
            self._value += n

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A point-in-time float metric (last write wins)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Fixed-bucket histogram with percentile summaries.

    ``buckets`` are increasing finite upper bounds; observations above
    the last bound land in an implicit overflow bucket.  Percentiles
    interpolate linearly inside the winning bucket and are clamped to
    the observed ``[min, max]`` range, so the degenerate cases (empty,
    single sample, everything in overflow) stay well-defined.
    """

    __slots__ = (
        "name",
        "buckets",
        "_bounds",
        "_counts",
        "_lock",
        "_n",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None):
        bounds = tuple(float(b) for b in (buckets or DEFAULT_TIME_BUCKETS))
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} needs strictly increasing buckets, got {bounds}"
            )
        self.name = name
        self.buckets = bounds
        self._bounds = np.asarray(bounds)
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self._lock = threading.Lock()
        self._n = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        # First bucket whose bound >= value; NaN compares false with
        # every bound, so it goes to the overflow bucket by hand.
        i = bisect_left(self.buckets, value) if value == value else len(self.buckets)
        with self._lock:
            self._counts[i] += 1
            self._n += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: ArrayLike) -> None:
        """Observe every value of ``values``, as an :meth:`observe` loop
        over them in order would: the same bucket counts, ``count``,
        ``min`` and ``max`` (NaN lands in the overflow bucket and moves
        neither bound), and a bit-identical ``total``.

        Binning runs outside the lock.  The sum is accumulated left to
        right from the running total (``np.add.accumulate``): a pairwise
        or compensated sum, such as ``sum()`` on Python >= 3.12, would
        round differently.
        """
        v = np.asarray(values, dtype=float).reshape(-1)
        if not v.size:
            return
        # side="left": first bucket whose bound >= value, as observe's
        # bisect; NaN sorts past every bound, into the overflow bucket.
        counts = np.bincount(
            np.searchsorted(self._bounds, v, side="left"),
            minlength=len(self._counts),
        )
        hit = np.flatnonzero(counts)
        hits = list(zip(hit.tolist(), counts[hit].tolist()))
        ordered = v[~np.isnan(v)]
        lo = float(ordered.min()) if ordered.size else float("inf")
        hi = float(ordered.max()) if ordered.size else float("-inf")
        running = np.empty(v.size + 1)
        running[1:] = v
        # inf + -inf is NaN, as in observe, without numpy's warning.
        with np.errstate(invalid="ignore"), self._lock:
            for i, c in hits:
                self._counts[i] += c
            self._n += v.size
            running[0] = self._sum
            self._sum = float(np.add.accumulate(running, out=running)[-1])
            if lo < self._min:
                self._min = lo
            if hi > self._max:
                self._max = hi

    # -- read side ----------------------------------------------------- #

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> Optional[float]:
        return self._sum / self._n if self._n else None

    @property
    def min(self) -> Optional[float]:
        return self._min if self._n else None

    @property
    def max(self) -> Optional[float]:
        return self._max if self._n else None

    @property
    def overflow_count(self) -> int:
        """Observations above the last finite bucket bound."""
        return self._counts[-1]

    def bucket_counts(self) -> Tuple[int, ...]:
        with self._lock:  # one observe_many's counts land all or none
            return tuple(self._counts)

    def percentile(self, q: float) -> Optional[float]:
        """Approximate q-th percentile (``q`` in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self._n == 0:
            return None
        if self._n == 1:
            return self._min
        rank = q / 100.0 * self._n
        cumulative = 0
        for i, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= rank and count:
                if i >= len(self.buckets):  # overflow: no finite upper bound
                    return self._max
                upper = self.buckets[i]
                lower = self.buckets[i - 1] if i else min(0.0, self._min)
                fraction = (rank - (cumulative - count)) / count
                estimate = lower + fraction * (upper - lower)
                return max(self._min, min(self._max, estimate))
        return self._max

    def summary(self) -> dict:
        with self._lock:
            return {
                "count": self._n,
                "sum": self._sum,
                "mean": self.mean,
                "min": self.min,
                "max": self.max,
                "p50": self.percentile(50.0),
                "p95": self.percentile(95.0),
                "p99": self.percentile(99.0),
                "overflow": self._counts[-1],
                # Raw bucket data (bounds + per-bucket counts, overflow
                # last) so exporters can render exposition-format
                # histograms without re-reading the live instrument.
                "bucket_bounds": list(self.buckets),
                "bucket_counts": list(self._counts),
            }

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._n = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")


_I = TypeVar("_I")


class MetricsRegistry:
    """Named instruments with get-or-create access and atomic snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create ------------------------------------------------- #

    def _instrument(
        self, table: Dict[str, _I], make: Callable[..., _I], name: str, *args: Any
    ) -> _I:
        # An existing instrument is found without the lock: a dict read is
        # atomic, and a lookup under a contended lock stalls every thread.
        instrument = table.get(name)
        if instrument is None:
            with self._lock:
                instrument = table.get(name)
                if instrument is None:
                    instrument = table[name] = make(name, *args)
        return instrument

    def counter(self, name: str) -> Counter:
        return self._instrument(self._counters, Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(self._gauges, Gauge, name)

    def remove_gauge(self, name: str) -> None:
        """Drop a gauge so it stops appearing in snapshots/exports.

        Needed for label-style dotted series (``slo.budget.*.<service>``)
        whose subject can disappear — a plain ``reset`` keeps instrument
        names alive, which would leave stale series on ``/metrics``.
        Cached handles to the removed gauge keep working but are
        orphaned; a later :meth:`gauge` call creates a fresh instrument.
        """
        with self._lock:
            self._gauges.pop(name, None)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._instrument(self._histograms, Histogram, name, buckets)

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            names = sorted((*self._counters, *self._gauges, *self._histograms))
        return iter(names)

    # -- snapshot / reset ---------------------------------------------- #

    def snapshot(self) -> dict:
        """A point-in-time, JSON-ready view of every instrument."""
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in sorted(self._counters.items())
                },
                "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
                "histograms": {
                    name: h.summary()
                    for name, h in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Zero every instrument in place (cached handles stay valid).

        The whole sweep happens under the registry lock — the same lock
        :meth:`snapshot` holds — so a snapshot taken concurrently with a
        reset sees either every instrument's pre-reset value or every
        instrument zeroed, never a mix (instrument locks alone cannot
        give that cross-instrument atomicity).
        """
        with self._lock:
            for instrument in (
                *self._counters.values(),
                *self._gauges.values(),
                *self._histograms.values(),
            ):
                instrument.reset()
