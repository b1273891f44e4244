"""Fault injection: schedules and their effect on the engine."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulator.delays import Deterministic
from repro.simulator.engine import Engine
from repro.simulator.faults import Degradation, FaultSchedule, combined_factor
from repro.simulator.service import ServiceSpec
from repro.workflow.constructs import Activity


def factor_at(sched, service, t):
    return combined_factor(sched.for_service(service), t)


def active(sched, service, t):
    return tuple(d for d in sched.for_service(service) if d.start <= t < d.end)


def test_degradation_validation():
    with pytest.raises(SimulationError):
        Degradation("a", 5.0, 5.0, 2.0)
    with pytest.raises(SimulationError):
        Degradation("a", 0.0, 1.0, 0.0)
    with pytest.raises(SimulationError):
        FaultSchedule(("not-a-degradation",))


def test_factor_at_windows():
    sched = FaultSchedule(
        (
            Degradation("a", 10.0, 20.0, 3.0),
            Degradation("a", 15.0, 25.0, 2.0),
            Degradation("b", 0.0, 5.0, 10.0),
        )
    )
    assert factor_at(sched, "a", 5.0) == 1.0
    assert factor_at(sched, "a", 12.0) == 3.0
    assert factor_at(sched, "a", 17.0) == 6.0  # overlapping faults compound
    assert factor_at(sched, "a", 24.0) == 2.0
    assert factor_at(sched, "a", 25.0) == 1.0  # end exclusive
    assert factor_at(sched, "zzz", 12.0) == 1.0


def test_window_boundaries_half_open():
    """Windows are [start, end): active at t == start, inactive at t == end,
    so back-to-back windows never double-apply at the seam."""
    sched = FaultSchedule(
        (
            Degradation("a", 10.0, 20.0, 3.0),
            Degradation("a", 20.0, 30.0, 2.0),
        )
    )
    assert factor_at(sched, "a", 10.0) == 3.0        # t == start: active
    assert factor_at(sched, "a", 20.0) == 2.0        # seam: only the second
    assert factor_at(sched, "a", 30.0) == 1.0        # t == end: inactive
    assert active(sched, "a", 10.0) == (sched.degradations[0],)
    assert active(sched, "a", 20.0) == (sched.degradations[1],)
    assert active(sched, "a", 30.0) == ()


def test_overlapping_windows_compound_and_report():
    first = Degradation("a", 0.0, 10.0, 2.0)
    second = Degradation("a", 5.0, 15.0, 3.0)
    sched = FaultSchedule((first, second))
    assert active(sched, "a", 7.0) == (first, second)
    assert factor_at(sched, "a", 7.0) == 6.0
    assert factor_at(sched, "a", 5.0) == 6.0          # second starts: both on
    assert factor_at(sched, "a", 10.0) == 3.0         # first ends: one left
    assert active(sched, "b", 7.0) == ()


def test_schedules_merge():
    s1 = FaultSchedule((Degradation("a", 10.0, 15.0, 4.0),))
    s2 = FaultSchedule((Degradation("b", 0.0, 1.0, 5.0),))
    merged = FaultSchedule(s1.degradations + s2.degradations)
    assert factor_at(merged, "a", 12.0) == 4.0
    assert factor_at(merged, "b", 0.5) == 5.0
    assert merged.for_service("a") == (Degradation("a", 10.0, 15.0, 4.0),)
    assert merged.for_service("c") == ()


def test_engine_applies_fault_windows():
    wf = Activity("a")
    spec = [ServiceSpec("a", Deterministic(1.0), queueing=False)]
    faults = FaultSchedule((Degradation("a", 100.0, 150.0, 3.0),))
    eng = Engine(wf, spec, rng=0, faults=faults)
    arrivals = np.array([10.0, 120.0, 200.0])
    records = eng.run(arrivals)
    assert records[0].response_time == pytest.approx(1.0)   # before outage
    assert records[1].response_time == pytest.approx(3.0)   # during
    assert records[2].response_time == pytest.approx(1.0)   # after


def test_fault_visible_in_learned_model():
    """An injected outage must move the monitored data distribution —
    the signal a reconstruction is supposed to pick up."""
    from repro.simulator.scenarios.ediamond import ediamond_scenario
    from repro.simulator.traces import trace_to_dataset

    env = ediamond_scenario()
    faults = FaultSchedule((Degradation("X5", 0.0, 1e9, 4.0),))
    eng = Engine(env.workflow, env.services, env.hosts,
                 demand_sigma=env.demand_sigma, rng=1, faults=faults)
    arrivals = np.cumsum(np.random.default_rng(2).exponential(2.5, size=300))
    records = eng.run(arrivals)
    data = trace_to_dataset(records, env.service_names)

    healthy = env.simulate(300, rng=3)
    assert np.mean(data["X5"]) > 2.5 * np.mean(healthy["X5"])
    assert np.mean(data["D"]) > np.mean(healthy["D"])
