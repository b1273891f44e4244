"""BudgetTracker: burn tracking, ranking, gauges, monitor integration."""

from dataclasses import dataclass

import pytest

from repro.obs.attribution import BUDGET_STREAM_BUCKETS, BudgetTracker
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class _Budget:
    service: str
    budget: float


@dataclass(frozen=True)
class _Alloc:
    """Duck-typed stand-in for repro.bn.budgets.BudgetAllocation."""

    budgets: tuple
    sla: float = 2.0
    target: float = 0.1
    slack: float = 1.5
    feasible: bool = True
    expression: str = "a + b"


def _alloc(**budgets):
    return _Alloc(
        budgets=tuple(_Budget(s, b) for s, b in sorted(budgets.items()))
    )


def _feed(registry, tracker, service, values):
    hist = registry.histogram(
        tracker.stream_name(service), buckets=BUDGET_STREAM_BUCKETS
    )
    for v in values:
        hist.observe(v)


def test_tracker_requires_allocation_before_tracking():
    tracker = BudgetTracker()
    assert tracker.allocation is None
    assert tracker.services == ()
    tracker.update_allocation(_alloc(a=0.5, b=1.0))
    assert tracker.services == ("a", "b")
    assert tracker.allocations_seen == 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        BudgetTracker(percentile=0.0)
    with pytest.raises(ValueError):
        BudgetTracker(window=0)
    with pytest.raises(ValueError):
        BudgetTracker(burn_rate_threshold=0.0)
    with pytest.raises(ValueError):
        BudgetTracker(stream_pattern="no-placeholder")
    with pytest.raises(ValueError):
        BudgetTracker().update_allocation(_Alloc(budgets=()))


def test_observe_flags_only_the_over_budget_service():
    reg = MetricsRegistry()
    tracker = BudgetTracker(_alloc(a=0.5, b=1.0), window=3)
    _feed(reg, tracker, "a", [0.9] * 20)   # burn ~1.8
    _feed(reg, tracker, "b", [0.4] * 20)   # burn ~0.4
    breaches = tracker.observe(reg)
    assert [b["service"] for b in breaches] == ["a"]
    b = breaches[0]
    assert b["objective"] == "budget.a" and b["kind"] == "budget"
    # Within-bucket interpolation can push the p95 of a constant-0.9
    # stream to its bucket's upper bound (~0.99), so bound, not pin.
    assert 0.9 / 0.5 <= b["burn_rate"] <= 1.0 / 0.5
    ranking = tracker.ranking()
    assert ranking[0]["service"] == "a" and ranking[0]["breached"]
    assert not ranking[1]["breached"]


def test_windowing_uses_deltas_not_cumulative_counts():
    reg = MetricsRegistry()
    tracker = BudgetTracker(_alloc(a=1.0), window=2)
    _feed(reg, tracker, "a", [0.5] * 50)
    assert tracker.observe(reg) == []
    # A fast interval after a slow history: the slow points age out of
    # the 2-interval window even though cumulative counts keep them.
    _feed(reg, tracker, "a", [2.0] * 50)
    assert len(tracker.observe(reg)) == 1
    _feed(reg, tracker, "a", [0.1] * 500)
    tracker.observe(reg)
    _feed(reg, tracker, "a", [0.1] * 500)
    assert tracker.observe(reg) == []


def test_no_points_means_no_breach_and_zero_burn():
    reg = MetricsRegistry()
    tracker = BudgetTracker(_alloc(a=1.0))
    assert tracker.observe(reg) == []
    row = tracker.ranking()[0]
    assert row["consumed"] is None and row["burn_rate"] == 0.0


def test_reallocation_retires_dropped_services_but_keeps_windows():
    reg = MetricsRegistry()
    tracker = BudgetTracker(_alloc(a=0.5, b=1.0), window=4)
    _feed(reg, tracker, "a", [0.9] * 10)
    tracker.observe(reg)
    tracker.update_allocation(_alloc(a=10.0))
    assert tracker.services == ("a",)
    # The measured window survived the re-allocation; only the bound
    # changed, so the same stream now sits far inside budget.
    assert tracker.observe(reg) == []
    assert tracker.allocations_seen == 2


def test_reallocation_removes_retired_service_gauges():
    reg = MetricsRegistry()
    tracker = BudgetTracker(_alloc(a=0.5, b=1.0))
    _feed(reg, tracker, "a", [0.4] * 5)
    tracker.observe(reg)
    tracker.publish_gauges(reg)
    assert "slo.budget.allocated.b" in reg.snapshot()["gauges"]
    tracker.update_allocation(_alloc(a=0.5))
    tracker.publish_gauges(reg)
    gauges = reg.snapshot()["gauges"]
    # Dropped service leaves no stale series behind; survivor stays.
    assert not any(name.endswith(".b") for name in gauges)
    assert "slo.budget.allocated.a" in gauges


def test_blame_feeds_ranking_tiebreak():
    reg = MetricsRegistry()
    tracker = BudgetTracker(_alloc(a=1.0, b=1.0))
    _feed(reg, tracker, "a", [0.5] * 10)
    _feed(reg, tracker, "b", [0.5] * 10)
    tracker.observe(reg)
    tracker.update_blame({"a": 0.2, "b": 0.9, "ghost": 1.0})
    ranking = tracker.ranking()
    assert ranking[0]["service"] == "b"  # equal burn, higher blame first
    assert all(r["service"] != "ghost" for r in ranking)


def test_publish_gauges_writes_every_family():
    reg = MetricsRegistry()
    tracker = BudgetTracker(_alloc(a=0.5))
    _feed(reg, tracker, "a", [0.9] * 10)
    tracker.observe(reg)
    tracker.update_blame({"a": 0.7})
    tracker.publish_gauges(reg)
    snap = reg.snapshot()["gauges"]
    assert snap["slo.budget.allocated.a"] == 0.5
    assert snap["slo.budget.consumed.a"] > 0.5
    assert snap["slo.budget.burn_rate.a"] > 1.0
    assert snap["slo.budget.blame.a"] == 0.7
    assert snap["slo.budget.breached.a"] == 1.0


def test_status_carries_allocation_head_and_history():
    reg = MetricsRegistry()
    tracker = BudgetTracker(_alloc(a=0.5), window=2)
    for _ in range(3):
        _feed(reg, tracker, "a", [0.9] * 5)
        tracker.observe(reg)
    status = tracker.status()
    assert status["sla"] == 2.0 and status["target"] == 0.1
    assert status["feasible"] is True
    assert status["expression"] == "a + b"
    row = status["services"][0]
    assert row["service"] == "a"
    assert len(row["history"]) == 3  # one burn sample per observe call


def test_monitor_integration_routes_budget_breaches(obs_active):
    from repro.obs.runtime import OBS
    from repro.obs.slo import LatencyObjective, SLOBreach, SLOMonitor

    reg = OBS.metrics
    tracker = BudgetTracker(_alloc(a=0.5), window=2)
    mon = SLOMonitor(
        [
            LatencyObjective(
                name="p95", histogram="e2e.seconds", threshold_seconds=100.0
            )
        ],
        registry=reg,
        budget_tracker=tracker,
    )
    reg.histogram("e2e.seconds").observe(0.1)
    _feed(reg, tracker, "a", [0.9] * 10)
    breaches = mon.evaluate()
    budget = [b for b in breaches if b.kind == "budget"]
    assert len(budget) == 1 and isinstance(budget[0], SLOBreach)
    assert budget[0].service == "a"
    assert reg.counter("slo.breaches").value == len(breaches)
    assert reg.counter("slo.budget.a.breaches").value == 1
    # Gauges published through the monitor path too.
    assert reg.snapshot()["gauges"]["slo.budget.breached.a"] == 1.0
    assert mon.status()["budgets"]["services"][0]["service"] == "a"


def test_monitor_without_tracker_has_no_budget_block():
    from repro.obs.slo import LatencyObjective, SLOMonitor

    reg = MetricsRegistry()
    mon = SLOMonitor(
        [
            LatencyObjective(
                name="p95", histogram="e2e.seconds", threshold_seconds=1.0
            )
        ],
        registry=reg,
    )
    mon.evaluate()
    assert "budgets" not in mon.status()
