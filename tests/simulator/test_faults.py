"""Fault injection: schedules and their effect on the engine."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulator.delays import Deterministic
from repro.simulator.engine import Engine
from repro.simulator.faults import Degradation, FaultSchedule
from repro.simulator.service import ServiceSpec
from repro.workflow.constructs import Activity


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
    assert sched.factor_at("a", 5.0) == 1.0
    assert sched.factor_at("a", 12.0) == 3.0
    assert sched.factor_at("a", 17.0) == 6.0  # overlapping faults compound
    assert sched.factor_at("a", 24.0) == 2.0
    assert sched.factor_at("a", 25.0) == 1.0  # end exclusive
    assert sched.factor_at("zzz", 12.0) == 1.0
    assert set(sched.services) == {"a", "b"}


def test_window_boundaries_half_open():
    """Windows are [start, end): active at t == start, inactive at t == end,
    so back-to-back windows never double-apply at the seam."""
    sched = FaultSchedule(
        (
            Degradation("a", 10.0, 20.0, 3.0),
            Degradation("a", 20.0, 30.0, 2.0),
        )
    )
    assert sched.factor_at("a", 10.0) == 3.0        # t == start: active
    assert sched.factor_at("a", 20.0) == 2.0        # seam: only the second
    assert sched.factor_at("a", 30.0) == 1.0        # t == end: inactive
    assert sched.active("a", 10.0) == (sched.degradations[0],)
    assert sched.active("a", 20.0) == (sched.degradations[1],)
    assert sched.active("a", 30.0) == ()


def test_overlapping_windows_compound_and_report():
    first = Degradation("a", 0.0, 10.0, 2.0)
    second = Degradation("a", 5.0, 15.0, 3.0)
    sched = FaultSchedule((first, second))
    assert sched.active("a", 7.0) == (first, second)
    assert sched.factor_at("a", 7.0) == 6.0
    assert sched.factor_at("a", 5.0) == 6.0          # second starts: both on
    assert sched.factor_at("a", 10.0) == 3.0         # first ends: one left
    assert sched.active("b", 7.0) == ()


def test_outage_convenience_and_merge():
    s1 = FaultSchedule.outage("a", 10.0, 5.0, factor=4.0)
    s2 = FaultSchedule.outage("b", 0.0, 1.0)
    merged = FaultSchedule(s1.degradations + s2.degradations)
    assert merged.factor_at("a", 12.0) == 4.0
    assert merged.factor_at("b", 0.5) == 5.0
    assert merged.for_service("a") == (Degradation("a", 10.0, 15.0, 4.0),)
    assert merged.for_service("c") == ()


def test_engine_applies_fault_windows():
    wf = Activity("a")
    spec = [ServiceSpec("a", Deterministic(1.0), queueing=False)]
    faults = FaultSchedule.outage("a", 100.0, 50.0, factor=3.0)
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
    faults = FaultSchedule.outage("X5", 0.0, 1e9, factor=4.0)
    eng = Engine(env.workflow, env.services, env.hosts,
                 demand_sigma=env.demand_sigma, rng=1, faults=faults)
    arrivals = np.cumsum(np.random.default_rng(2).exponential(2.5, size=300))
    records = eng.run(arrivals)
    data = trace_to_dataset(records, env.service_names)

    healthy = env.simulate(300, rng=3)
    assert np.mean(data["X5"]) > 2.5 * np.mean(healthy["X5"])
    assert np.mean(data["D"]) > np.mean(healthy["D"])
