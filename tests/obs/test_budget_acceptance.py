"""ISSUE 10 acceptance: one slowed service → budgets, attribution, action.

The scripted story: an eDiaMoND manager runs healthy cycles (budgets
derive from the healthy published model and satisfy the composition
invariant), then X3 is artificially slowed.  The degraded service must
top the attribution everywhere it surfaces — exporter gauges, dashboard
renderings — and the manager must act on that *specific* service within
one cycle, recording the attribution in its CycleReport.
"""

import numpy as np
import pytest

from repro.obs.attribution import BudgetTracker
from repro.obs.slo import SLOMonitor, manager_objectives

SLA = 3.5
TARGET = 0.1
DEGRADED = "X3"
FACTOR = 3.0


@pytest.fixture()
def budget_manager(obs_active):
    from repro.core.manager import AutonomicManager, SLAPolicy
    from repro.obs.runtime import OBS
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    env = ediamond_scenario()
    policy = SLAPolicy(threshold=SLA, max_violation_prob=TARGET)
    tracker = BudgetTracker(window=3)
    monitor = SLOMonitor(
        manager_objectives(policy),
        registry=OBS.metrics,
        window=3,
        budget_tracker=tracker,
    )
    manager = AutonomicManager(
        env, policy, window_points=60, rng=0, slo_monitor=monitor
    )
    return manager, monitor, tracker


def _run_healthy(manager, tracker, cycles=3):
    for _ in range(cycles):
        manager.run_cycle()
    assert tracker.allocation is not None, "healthy cycles must derive budgets"
    return tracker.allocation


def test_healthy_budgets_satisfy_the_composition_invariant(budget_manager):
    manager, _, tracker = budget_manager
    alloc = _run_healthy(manager, tracker)
    assert alloc.feasible
    assert alloc.sla == SLA and alloc.target == TARGET
    # Recomposition invariant: f at the budget vector meets the SLA...
    f = manager._reference_model.f.expression
    x = {sb.service: np.asarray([sb.budget]) for sb in alloc.budgets}
    assert float(f(x)[0]) <= SLA * (1 + 1e-9)
    # ...and the union-bound breach mass meets the probability target.
    assert alloc.tail_total <= TARGET + 1e-12
    # Spot-check against the measured stream: the healthy environment
    # really does run inside the objective the budgets encode.
    data = manager.env.simulate(2000, rng=42)
    measured = np.asarray(data[manager.env.response], dtype=float)
    assert float(np.mean(measured > SLA)) <= TARGET


def test_slowed_service_tops_attribution_and_is_acted_on(budget_manager):
    from repro.core.manager import inject_degradation

    manager, monitor, tracker = budget_manager
    _run_healthy(manager, tracker)
    inject_degradation(manager.env, DEGRADED, FACTOR)
    report = manager.run_cycle()

    budget_breaches = [b for b in report.slo_breaches if b.kind == "budget"]
    assert [b.service for b in budget_breaches] == [DEGRADED]
    assert budget_breaches[0].objective == f"budget.{DEGRADED}"
    assert budget_breaches[0].burn_rate > 1.0

    # Attribution recorded on the report, degraded service first.
    assert report.attribution, "acting cycle must record its attribution"
    top = report.attribution[0]
    assert top["service"] == DEGRADED and top["breached"]
    assert top["burn_rate"] > 1.0
    assert top["blame"] == max(r["blame"] for r in report.attribution)

    # The action within this very cycle targets the degraded service.
    assert report.acted
    assert report.action[0] == DEGRADED
    assert report.trigger in ("slo", "model+slo")


def test_exporter_ranks_the_degraded_service_first(budget_manager):
    from repro.core.manager import inject_degradation
    from repro.obs.export import ExportServer

    manager, monitor, tracker = budget_manager
    _run_healthy(manager, tracker)
    inject_degradation(manager.env, DEGRADED, FACTOR)
    manager.run_cycle()

    body = ExportServer(slo_monitor=monitor).metrics_body()
    burn = {}
    allocated = set()
    for line in body.splitlines():
        if line.startswith("repro_slo_budget_burn_rate{"):
            service = line.split('service="', 1)[1].split('"', 1)[0]
            burn[service] = float(line.rsplit(" ", 1)[1])
        elif line.startswith("repro_slo_budget_allocated{"):
            allocated.add(line.split('service="', 1)[1].split('"', 1)[0])
    # The process-global registry may carry series from other obs tests
    # (instrument names survive resets), so assert over *this* tracker's
    # services rather than exact set equality.
    assert set(tracker.services) <= set(burn)
    assert max(tracker.services, key=burn.get) == DEGRADED
    assert burn[DEGRADED] > 1.0
    assert f'repro_slo_budget_breached{{service="{DEGRADED}"}} 1' in body
    # Allocation gauges exported for every service as well.
    assert set(tracker.services) <= allocated


def test_dashboards_render_the_attribution_table(budget_manager):
    from repro.core.manager import inject_degradation
    from repro.obs import runtime
    from repro.obs.dashboard import render_html, render_terminal

    manager, monitor, tracker = budget_manager
    _run_healthy(manager, tracker)
    inject_degradation(manager.env, DEGRADED, FACTOR)
    manager.run_cycle()

    snap = runtime.snapshot()
    snap["slo"] = monitor.status()
    text = render_terminal(snap)
    assert "per-service budgets" in text
    lines = [ln for ln in text.splitlines() if ln.lstrip().startswith("X")]
    assert lines and lines[0].lstrip().startswith(DEGRADED)
    assert "OVER" in lines[0]

    html = render_html(snap, title="budget acceptance")
    assert "Per-service budgets" in html
    assert html.index(f"<td>{DEGRADED}</td>") < min(
        html.index(f"<td>{s}</td>")
        for s in tracker.services
        if s != DEGRADED
    )
    assert "OVER" in html



def test_a_healthy_cycle_builds_one_joint_per_model(obs_active, monkeypatch):
    """Assessment, budget marginals and blame of a healthy cycle all read
    the fresh model's one cached assessor, so the service-layer joint is
    built once.  Each ``joint_gaussian_of`` call makes one
    ``solve_triangular`` call, which counts the builds however the
    function was imported."""
    from repro.bn.inference import gaussian
    from repro.core.manager import AutonomicManager, SLAPolicy
    from repro.obs.runtime import OBS
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    env = ediamond_scenario()
    policy = SLAPolicy(threshold=6.0, max_violation_prob=0.3)
    tracker = BudgetTracker(window=3)
    monitor = SLOMonitor(
        manager_objectives(policy), registry=OBS.metrics, window=3,
        budget_tracker=tracker,
    )
    manager = AutonomicManager(
        env, policy, window_points=250, rng=1, slo_monitor=monitor
    )
    first = manager.run_cycle()
    assert not first.acted and tracker.allocation is not None
    solves = []
    real = gaussian.solve_triangular
    monkeypatch.setattr(
        gaussian, "solve_triangular",
        lambda *a, **k: (solves.append(1), real(*a, **k))[1],
    )
    before = tracker.allocation
    report = manager.run_cycle()
    assert not report.degraded and not report.acted
    assert tracker.allocation is not before  # budgets re-derived
    assert any(row["blame"] > 0.0 for row in report.attribution)
    assert len(solves) == 1
