"""Windowed SLO monitoring: deltas, burn rates, breach plumbing.

These tests drive :class:`SLOMonitor` against a private registry with
hand-fed instruments so every delta and percentile is exact, then check
the manager-facing surface: objective derivation from an
:class:`~repro.core.manager.SLAPolicy` and the breach-triggered action
inside :meth:`AutonomicManager.run_cycle`.
"""

import dataclasses

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    ErrorRateObjective,
    LatencyObjective,
    SLOBreach,
    SLOMonitor,
    manager_objectives,
)

BUCKETS = (0.1, 0.5, 1.0, 5.0)


def _latency_monitor(registry, threshold=1.0, **kwargs):
    obj = LatencyObjective(
        name="p95", histogram="lat_seconds", threshold_seconds=threshold
    )
    registry.histogram("lat_seconds", buckets=BUCKETS)
    return SLOMonitor([obj], registry=registry, **kwargs)


def _observe(registry, values):
    h = registry.histogram("lat_seconds", buckets=BUCKETS)
    for v in values:
        h.observe(v)


# --------------------------------------------------------------------- #
# Construction contracts
# --------------------------------------------------------------------- #


def test_objective_validation():
    with pytest.raises(ValueError, match="threshold_seconds"):
        LatencyObjective("x", "h", threshold_seconds=0.0)
    with pytest.raises(ValueError, match="percentile"):
        LatencyObjective("x", "h", threshold_seconds=1.0, percentile=0.0)
    with pytest.raises(ValueError, match="max_ratio"):
        ErrorRateObjective("x", "e", "t", max_ratio=1.0)


def test_monitor_validation():
    reg = MetricsRegistry()
    obj = LatencyObjective("p95", "h", threshold_seconds=1.0)
    with pytest.raises(ValueError, match="at least one objective"):
        SLOMonitor([], registry=reg)
    with pytest.raises(ValueError, match="window"):
        SLOMonitor([obj], registry=reg, window=0)
    with pytest.raises(ValueError, match="burn_rate_threshold"):
        SLOMonitor([obj], registry=reg, burn_rate_threshold=0.0)
    with pytest.raises(ValueError, match="unique"):
        SLOMonitor([obj, obj], registry=reg)


# --------------------------------------------------------------------- #
# Latency objectives
# --------------------------------------------------------------------- #


def test_healthy_stream_never_breaches():
    reg = MetricsRegistry()
    mon = _latency_monitor(reg, threshold=1.0)
    for _ in range(4):
        _observe(reg, [0.05] * 20)
        assert mon.evaluate() == []
    assert reg.counter("slo.evaluations").value == 4
    assert reg.counter("slo.breaches").value == 0


def test_slow_stream_breaches_with_burn_rate():
    reg = MetricsRegistry()
    mon = _latency_monitor(reg, threshold=0.5)
    _observe(reg, [4.0] * 20)  # p95 lands in the (1.0, 5.0] bucket
    breaches = mon.evaluate()
    assert len(breaches) == 1
    b = breaches[0]
    assert isinstance(b, SLOBreach)
    assert b.objective == "p95"
    assert b.kind == "latency"
    assert b.observed > 1.0
    assert b.burn_rate == pytest.approx(b.observed / 0.5)
    assert b.burn_rate >= 1.0
    assert reg.counter("slo.breaches").value == 1
    assert reg.counter("slo.p95.breaches").value == 1
    assert reg.gauge("slo.p95.breached").value == 1.0


def test_windowing_judges_the_aggregate_not_the_interval():
    """One slow interval inside a healthy window need not breach, and
    the breach clears once healthy intervals push the bad one out."""
    reg = MetricsRegistry()
    mon = _latency_monitor(reg, threshold=1.0, window=3)
    # Interval 1: overwhelmingly fast with a few slow points.
    _observe(reg, [0.05] * 95 + [4.0] * 5)
    assert mon.evaluate() == []  # p95 of the window is still fast
    # Interval 2: all slow — the window aggregate tips over.
    _observe(reg, [4.0] * 100)
    assert len(mon.evaluate()) == 1
    # Healthy intervals push the slow one out of the 3-wide window.
    for _ in range(3):
        _observe(reg, [0.05] * 200)
        breaches = mon.evaluate()
    assert breaches == []


def test_registry_reset_is_detected_not_mistaken_for_regression():
    reg = MetricsRegistry()
    mon = _latency_monitor(reg, threshold=0.5, window=1)
    _observe(reg, [0.05] * 10)
    assert mon.evaluate() == []
    reg.reset()  # cumulative counts drop — the monitor must re-base
    _observe(reg, [4.0] * 10)
    breaches = mon.evaluate()
    assert len(breaches) == 1
    # the delta was the 10 post-reset points, not a negative artifact
    assert "10 point(s)" in breaches[0].detail


def test_min_points_suppresses_judgement_on_thin_windows():
    reg = MetricsRegistry()
    mon = _latency_monitor(reg, threshold=0.5, min_points=50)
    _observe(reg, [4.0] * 10)  # all slow, but too few points to judge
    assert mon.evaluate() == []
    _observe(reg, [4.0] * 60)
    assert len(mon.evaluate()) == 1


# --------------------------------------------------------------------- #
# Error-rate objectives
# --------------------------------------------------------------------- #


def _error_monitor(reg, max_ratio=0.1, **kwargs):
    obj = ErrorRateObjective(
        name="err", errors="fails", total="calls", max_ratio=max_ratio
    )
    return SLOMonitor([obj], registry=reg, **kwargs)


def test_error_rate_breach_on_window_ratio():
    reg = MetricsRegistry()
    mon = _error_monitor(reg, max_ratio=0.1, window=2)
    reg.counter("calls").inc(100)
    reg.counter("fails").inc(2)
    assert mon.evaluate() == []  # 2%
    reg.counter("calls").inc(100)
    reg.counter("fails").inc(38)
    breaches = mon.evaluate()  # window: 40/200 = 20%
    assert len(breaches) == 1
    assert breaches[0].kind == "error_rate"
    assert breaches[0].observed == pytest.approx(0.2)
    assert breaches[0].burn_rate == pytest.approx(2.0)


def test_error_rate_with_no_traffic_is_not_judged():
    reg = MetricsRegistry()
    mon = _error_monitor(reg)
    assert mon.evaluate() == []
    status = mon.status()["objectives"][0]
    assert status["observed"] is None
    assert status["breached"] is False


# --------------------------------------------------------------------- #
# Plumbing: gauges, subscribers, events, status
# --------------------------------------------------------------------- #


def test_publish_gauges_is_scrape_safe():
    """A scrape between evaluations must not consume a window interval."""
    reg = MetricsRegistry()
    mon = _latency_monitor(reg, threshold=0.5, window=2)
    _observe(reg, [4.0] * 10)
    mon.evaluate()
    state = mon._states["p95"]
    intervals_before = len(state.window)
    for _ in range(5):
        mon.publish_gauges()
    assert len(state.window) == intervals_before
    assert mon.evaluations == 1
    assert reg.gauge("slo.p95.breached").value == 1.0


def test_evaluate_returns_breaches():
    reg = MetricsRegistry()
    mon = _latency_monitor(reg, threshold=0.5)
    _observe(reg, [4.0] * 10)
    breaches = mon.evaluate()
    assert len(breaches) == 1
    assert breaches[0].objective == "p95"
    assert reg.counter("slo.breaches").value == 1


def test_status_is_json_ready():
    import json

    reg = MetricsRegistry()
    mon = _latency_monitor(reg, threshold=0.5, window=7)
    _observe(reg, [4.0] * 10)
    mon.evaluate()
    status = mon.status()
    json.dumps(status)  # must not raise
    assert status["window"] == 7
    assert status["evaluations"] == 1
    assert status["objectives"][0]["breached"] is True


# --------------------------------------------------------------------- #
# Manager integration
# --------------------------------------------------------------------- #


def test_manager_objectives_derive_from_policy():
    from repro.core.manager import SLAPolicy

    policy = SLAPolicy(threshold=2.0, max_violation_prob=0.2)
    latency, errors = manager_objectives(policy)
    assert latency.histogram == "manager.window.response_seconds"
    assert latency.threshold_seconds == 2.0
    assert errors.errors == "manager.window.violations"
    assert errors.total == "manager.window.points"
    assert errors.max_ratio == 0.2


def _lenient_manager(slo_monitor):
    """An eDiaMoND manager whose *model* trigger is parked out of reach
    (sky-high SLA threshold → predicted violation probability ~0), so
    any action taken is attributable to the SLO path alone."""
    from repro.core.manager import AutonomicManager, SLAPolicy
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    env = ediamond_scenario()
    policy = SLAPolicy(threshold=1e6, max_violation_prob=0.99)
    return AutonomicManager(
        env, policy, window_points=60, rng=0, slo_monitor=slo_monitor
    )


def test_slo_breach_triggers_manager_action_within_one_cycle(obs_active):
    from repro.obs.runtime import OBS

    # The measured stream (seconds-scale responses) overruns a
    # millisecond latency objective, while the model sees no risk at
    # all against its 1e6 SLA threshold.
    mon = SLOMonitor(
        [
            LatencyObjective(
                name="response_p95",
                histogram="manager.window.response_seconds",
                threshold_seconds=1e-3,
            )
        ],
        registry=OBS.metrics,
        window=3,
    )
    manager = _lenient_manager(mon)
    report = manager.run_cycle()
    assert report.slo_breaches, "measured overruns must surface as breaches"
    assert [b.objective for b in report.slo_breaches] == ["response_p95"]
    assert report.violation_prob <= manager.policy.max_violation_prob
    assert report.trigger == "slo"
    assert report.acted, "an SLO breach alone must drive plan/execute"
    assert OBS.metrics.counter("manager.slo_breach_cycles").value == 1
    assert OBS.metrics.counter("manager.actions").value == 1


def test_healthy_manager_with_monitor_takes_no_slo_action(obs_active):
    from repro.core.manager import AutonomicManager, SLAPolicy
    from repro.obs.runtime import OBS
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    env = ediamond_scenario()
    policy = SLAPolicy(threshold=1e6, max_violation_prob=0.99)
    mon = SLOMonitor(manager_objectives(policy), registry=OBS.metrics)
    manager = AutonomicManager(
        env, policy, window_points=60, rng=0, slo_monitor=mon
    )
    report = manager.run_cycle()
    assert report.slo_breaches == []
    assert report.trigger is None
    assert not report.acted


def test_window_metrics_feed_without_a_monitor_when_obs_enabled(obs_active):
    """Even monitor-less managers publish the measured stream, so an
    external scraper (or a later-attached monitor) can judge it."""
    from repro.core.manager import AutonomicManager, SLAPolicy
    from repro.obs.runtime import OBS
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    manager = AutonomicManager(
        ediamond_scenario(),
        SLAPolicy(threshold=1e-3, max_violation_prob=0.99),
        window_points=60,
        rng=0,
    )
    manager.run_cycle()
    assert OBS.metrics.histogram("manager.window.response_seconds").count > 0
    assert OBS.metrics.counter("manager.window.points").value > 0
    assert OBS.metrics.counter("manager.window.violations").value > 0


# --------------------------------------------------------------------- #
# Serialization contracts (ISSUE 10 satellites)
# --------------------------------------------------------------------- #


def test_slobreach_to_dict_round_trips():
    breach = SLOBreach(
        objective="budget.X3",
        kind="budget",
        observed=0.41,
        threshold=0.3,
        burn_rate=1.3667,
        window_intervals=3,
        detail="p95(stream) over 3 interval(s)",
        service="X3",
    )
    spec = dataclasses.asdict(breach)
    assert spec["service"] == "X3"
    assert SLOBreach.from_dict(spec) == breach
    # Pre-PR-10 payloads carry no service key; it defaults to None.
    legacy = {k: v for k, v in spec.items() if k != "service"}
    assert SLOBreach.from_dict(legacy).service is None


def test_status_matches_golden_snapshot():
    """The status() dict is the dashboard/export contract — pin it."""
    import json
    import pathlib

    reg = MetricsRegistry()
    mon = SLOMonitor(
        [
            LatencyObjective(
                name="p95", histogram="lat_seconds", threshold_seconds=1.0
            ),
            ErrorRateObjective(
                name="err", errors="errs", total="total", max_ratio=0.25
            ),
        ],
        registry=reg,
        window=3,
    )
    _observe(reg, [0.2] * 10 + [2.0] * 10)
    reg.counter("errs").inc(2)
    reg.counter("total").inc(20)
    mon.evaluate()
    golden_path = (
        pathlib.Path(__file__).parent / "data" / "slo_status_golden.json"
    )
    golden = json.loads(golden_path.read_text())
    assert json.loads(json.dumps(mon.status())) == golden


# --------------------------------------------------------------------- #
# manager_objectives / _percentile_from_buckets edge cases
# --------------------------------------------------------------------- #


def test_manager_objectives_percentile_variants():
    from repro.core.manager import SLAPolicy

    policy = SLAPolicy(threshold=2.0, max_violation_prob=0.2)
    p50, _ = manager_objectives(policy, percentile=50.0)
    assert p50.name == "response_p50" and p50.percentile == 50.0
    p99, _ = manager_objectives(policy, percentile=99.0)
    assert p99.name == "response_p99" and p99.percentile == 99.0
    # The default keeps the historical name the dashboards key on.
    default, _ = manager_objectives(policy)
    assert default.name == "response_p95"


def test_manager_objectives_reject_missing_policy():
    with pytest.raises(ValueError, match="SLAPolicy"):
        manager_objectives(None)


def test_percentile_from_buckets_zero_observations():
    from repro.obs.slo import _percentile_from_buckets

    assert _percentile_from_buckets(BUCKETS, [0] * 5, 95.0) is None


def test_percentile_from_buckets_at_bucket_boundaries():
    from repro.obs.slo import _percentile_from_buckets

    # All mass in the first bucket: p100 interpolates to its upper
    # bound, and the lower edge of bucket 0 is implicitly zero.
    assert _percentile_from_buckets(BUCKETS, [10, 0, 0, 0, 0], 100.0) == (
        pytest.approx(0.1)
    )
    assert _percentile_from_buckets(BUCKETS, [10, 0, 0, 0, 0], 10.0) == (
        pytest.approx(0.01)
    )
    # Rank landing exactly on a cumulative boundary stays in that bucket.
    assert _percentile_from_buckets(BUCKETS, [5, 5, 0, 0, 0], 50.0) == (
        pytest.approx(0.1)
    )
    # Overflow mass (beyond the last bound) clamps to the last bound.
    assert _percentile_from_buckets(BUCKETS, [0, 0, 0, 0, 7], 95.0) == (
        pytest.approx(5.0)
    )
    assert _percentile_from_buckets(BUCKETS, [1, 0, 0, 0, 1], 99.0) == (
        pytest.approx(5.0)
    )
