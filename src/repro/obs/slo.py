"""Windowed SLO monitoring over the metrics registry.

The paper's autonomic loop acts when the *model* predicts an SLA
violation; a production loop also needs the complementary trigger —
the *measured* stream crossing its objective (ALPINE-style diagnosis
consumes exactly this).  :class:`SLOMonitor` closes that observe →
analyze edge: it reads the :class:`~repro.obs.metrics.MetricsRegistry`
(no new instrumentation needed), tracks **windowed** latency percentiles
and error rates from cumulative instrument deltas, and returns the
:class:`SLOBreach` events of each :meth:`SLOMonitor.evaluate` call;
:meth:`repro.core.manager.AutonomicManager.run_cycle` treats them as an
action trigger alongside the model-predicted violation probability.

Windowing works on deltas: each :meth:`SLOMonitor.evaluate` call reads
the cumulative instruments, subtracts the previous reading, and pushes
the interval delta into a fixed-length :class:`CountWindow`.  Objectives are then
judged on the *window aggregate* — a single slow interval in an
otherwise healthy window need not breach, and a breach clears once
enough healthy intervals push the bad one out.  ``burn_rate`` is the
classic SRE ratio: how many times faster than allowed the error budget
is being consumed (observed / objective); alerting triggers at
``burn_rate_threshold`` (default 1.0 — at or above budget).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.obs.runtime import OBS

__all__ = [
    "LatencyObjective",
    "ErrorRateObjective",
    "SLOBreach",
    "SLOMonitor",
    "manager_objectives",
]


@dataclass(frozen=True)
class LatencyObjective:
    """``percentile(histogram) <= threshold_seconds`` over the window."""

    name: str
    histogram: str          # registry histogram the objective watches
    threshold_seconds: float
    percentile: float = 95.0

    def __post_init__(self) -> None:
        if not self.threshold_seconds > 0:
            raise ValueError(f"threshold_seconds must be > 0 for {self.name!r}")
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100] for {self.name!r}")


@dataclass(frozen=True)
class ErrorRateObjective:
    """``errors / total <= max_ratio`` over the window."""

    name: str
    errors: str             # numerator counter
    total: str              # denominator counter
    max_ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.max_ratio < 1.0:
            raise ValueError(f"max_ratio must be in (0, 1) for {self.name!r}")


@dataclass(frozen=True)
class SLOBreach:
    """One objective over budget for the current window."""

    objective: str
    kind: str               # "latency" | "error_rate" | "budget"
    observed: float
    threshold: float
    burn_rate: float        # observed / threshold (>= the alert bound)
    window_intervals: int
    detail: str = ""
    service: Optional[str] = None  # set for kind="budget" breaches

    @classmethod
    def from_dict(cls, spec: dict) -> "SLOBreach":
        return cls(
            objective=str(spec["objective"]),
            kind=str(spec["kind"]),
            observed=float(spec["observed"]),
            threshold=float(spec["threshold"]),
            burn_rate=float(spec["burn_rate"]),
            window_intervals=int(spec["window_intervals"]),
            detail=str(spec.get("detail", "")),
            service=(
                None if spec.get("service") is None else str(spec["service"])
            ),
        )


def _percentile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> Optional[float]:
    """Interpolated percentile over aggregated bucket deltas (the same
    scheme as :meth:`repro.obs.metrics.Histogram.percentile`, but for
    counts that no single live instrument holds)."""
    n = sum(counts)
    if n == 0:
        return None
    rank = q / 100.0 * n
    cumulative = 0
    for i, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank and count:
            if i >= len(bounds):
                return float(bounds[-1])  # overflow: clamp to last bound
            upper = float(bounds[i])
            lower = float(bounds[i - 1]) if i else 0.0
            fraction = (rank - (cumulative - count)) / count
            return lower + fraction * (upper - lower)
    return float(bounds[-1])


class CountWindow:
    """Running sum of the last ``size`` interval deltas of a cumulative
    count vector: histogram bucket counts, or an ``(errors, total)`` pair.

    A reading below the previous one in any slot (the registry was reset)
    counts whole; one of another length (the bucket layout changed) also
    drops the older deltas.  ``size`` may change between pushes; the
    newest ``size`` deltas stay.
    """

    def __init__(self) -> None:
        self._deltas: Deque[np.ndarray] = deque()
        self._last: Optional[np.ndarray] = None
        self._sum = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._deltas)

    def push(self, reading: Sequence[int], size: int) -> List[int]:
        """Ingest one cumulative reading; return the window's sum."""
        counts = np.asarray(reading, dtype=np.int64)
        if self._last is None or self._last.shape != counts.shape:
            self._deltas.clear()
            self._sum = np.zeros_like(counts)
            delta = counts
        elif (counts < self._last).any():
            delta = counts
        else:
            delta = counts - self._last
        self._last = counts
        while len(self._deltas) >= size:
            self._sum -= self._deltas.popleft()
        self._deltas.append(delta)
        self._sum += delta
        return self._sum.tolist()


@dataclass
class _ObjectiveState:
    """Count window + last evaluation for one objective."""

    window: CountWindow = field(default_factory=CountWindow)
    last_eval: "dict | None" = None


class SLOMonitor:
    """Evaluate objectives over rolling windows of registry deltas.

    One :meth:`evaluate` call = one interval (the autonomic manager
    calls it once per MAPE cycle).  Breaches are returned, sent to the
    attached event sink (category ``slo_breach``), and counted in the
    ``slo.*`` metrics so the exporter publishes SLO health alongside
    the raw stream it is judged on.
    """

    def __init__(
        self,
        objectives: Sequence[object],
        registry=None,
        window: int = 5,
        burn_rate_threshold: float = 1.0,
        min_points: int = 1,
        budget_tracker=None,
    ):
        if not objectives:
            raise ValueError("SLOMonitor needs at least one objective")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if burn_rate_threshold <= 0:
            raise ValueError(
                f"burn_rate_threshold must be > 0, got {burn_rate_threshold}"
            )
        names = [o.name for o in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"objective names must be unique, got {names}")
        self.objectives = tuple(objectives)
        self._registry = registry
        self.window = int(window)
        self.burn_rate_threshold = float(burn_rate_threshold)
        self.min_points = int(min_points)
        self._states: Dict[str, _ObjectiveState] = {
            o.name: _ObjectiveState() for o in self.objectives
        }
        self.evaluations = 0
        #: Optional :class:`~repro.obs.attribution.BudgetTracker`; when
        #: attached, per-service budget burn rides the breach pipeline.
        self.budget_tracker = budget_tracker

    @property
    def registry(self):
        # Resolved late so ``SLOMonitor(objectives)`` built before
        # ``obs.enable()`` still watches the process-global registry.
        return self._registry if self._registry is not None else OBS.metrics

    # -- interval ingestion --------------------------------------------- #

    def _latency_interval(self, obj: LatencyObjective, state: _ObjectiveState):
        hist = self.registry.histogram(obj.histogram)
        aggregated = state.window.push(hist.bucket_counts(), self.window)
        observed = _percentile_from_buckets(hist.buckets, aggregated, obj.percentile)
        return observed, sum(aggregated)

    def _error_rate_interval(
        self, obj: ErrorRateObjective, state: _ObjectiveState
    ):
        reading = (
            self.registry.counter(obj.errors).value,
            self.registry.counter(obj.total).value,
        )
        err, tot = state.window.push(reading, self.window)
        observed = (err / tot) if tot else None
        return observed, tot

    # -- evaluation ----------------------------------------------------- #

    def evaluate(self) -> List[SLOBreach]:
        """Ingest one interval and judge every objective on its window."""
        self.evaluations += 1
        m = self.registry
        m.counter("slo.evaluations").inc()
        breaches: List[SLOBreach] = []
        for obj in self.objectives:
            state = self._states[obj.name]
            if isinstance(obj, LatencyObjective):
                kind = "latency"
                threshold = obj.threshold_seconds
                observed, points = self._latency_interval(obj, state)
                detail = (
                    f"p{obj.percentile:g}({obj.histogram}) over "
                    f"{len(state.window)} interval(s), {points} point(s)"
                )
            else:
                kind = "error_rate"
                threshold = obj.max_ratio
                observed, points = self._error_rate_interval(obj, state)
                detail = (
                    f"{obj.errors}/{obj.total} over "
                    f"{len(state.window)} interval(s), {points} point(s)"
                )
            if observed is None or points < self.min_points:
                state.last_eval = {
                    "objective": obj.name,
                    "kind": kind,
                    "observed": None,
                    "threshold": threshold,
                    "burn_rate": 0.0,
                    "breached": False,
                    "window_intervals": len(state.window),
                }
                continue
            burn_rate = observed / threshold
            breached = burn_rate >= self.burn_rate_threshold
            state.last_eval = {
                "objective": obj.name,
                "kind": kind,
                "observed": observed,
                "threshold": threshold,
                "burn_rate": burn_rate,
                "breached": breached,
                "window_intervals": len(state.window),
            }
            if breached:
                breach = SLOBreach(
                    objective=obj.name,
                    kind=kind,
                    observed=observed,
                    threshold=threshold,
                    burn_rate=burn_rate,
                    window_intervals=len(state.window),
                    detail=detail,
                )
                breaches.append(breach)
                self._publish(breach)
        tracker = self.budget_tracker
        if tracker is not None and tracker.allocation is not None:
            for record in tracker.observe(m):
                breach = SLOBreach.from_dict(record)
                breaches.append(breach)
                self._publish(breach)
        self.publish_gauges()
        return breaches

    def _publish(self, breach: SLOBreach) -> None:
        """Count one breach."""
        m = self.registry
        m.counter("slo.breaches").inc()
        m.counter(f"slo.{breach.objective}.breaches").inc()

    def publish_gauges(self) -> None:
        """(Re)write the ``slo.*`` gauges from the last evaluation —
        scrape-safe: does not ingest an interval or advance windows."""
        m = self.registry
        for name, state in self._states.items():
            ev = state.last_eval
            if ev is None:
                continue
            if ev["observed"] is not None:
                m.gauge(f"slo.{name}.value").set(float(ev["observed"]))
            m.gauge(f"slo.{name}.burn_rate").set(float(ev["burn_rate"]))
            m.gauge(f"slo.{name}.breached").set(1.0 if ev["breached"] else 0.0)
        tracker = self.budget_tracker
        if tracker is not None and tracker.allocation is not None:
            tracker.publish_gauges(m)

    def status(self) -> dict:
        """JSON-ready per-objective view (for ``/healthz``, dashboards)."""
        out = {
            "evaluations": self.evaluations,
            "window": self.window,
            "burn_rate_threshold": self.burn_rate_threshold,
            "objectives": [
                self._states[o.name].last_eval
                or {"objective": o.name, "observed": None, "breached": False}
                for o in self.objectives
            ],
        }
        tracker = self.budget_tracker
        if tracker is not None and tracker.allocation is not None:
            out["budgets"] = tracker.status()
        return out


def manager_objectives(policy, percentile: float = 95.0) -> tuple:
    """The default objective pair guarding an :class:`~repro.core.
    manager.AutonomicManager`'s measured stream, derived from its
    :class:`~repro.core.manager.SLAPolicy`: the windowed response-time
    percentile (p95 by default) against the SLA threshold, and the
    observed violation fraction against the tolerated violation
    probability."""
    if policy is None:
        raise ValueError(
            "manager_objectives needs an SLAPolicy, got None"
        )
    return (
        LatencyObjective(
            name=f"response_p{percentile:g}",
            histogram="manager.window.response_seconds",
            threshold_seconds=policy.threshold,
            percentile=percentile,
        ),
        ErrorRateObjective(
            name="violation_rate",
            errors="manager.window.violations",
            total="manager.window.points",
            max_ratio=policy.max_violation_prob,
        ),
    )
