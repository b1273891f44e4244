"""Workload generators."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulator.workload import OpenWorkload


def test_open_workload_rate(rng):
    w = OpenWorkload(rate=2.0)
    t = w.arrival_times(20_000, rng)
    assert np.all(np.diff(t) >= 0)
    gaps = np.diff(t)
    assert gaps.mean() == pytest.approx(0.5, rel=0.05)


def test_open_workload_validation():
    with pytest.raises(SimulationError):
        OpenWorkload(0.0)
    with pytest.raises(SimulationError):
        OpenWorkload(1.0).arrival_times(0)


def test_bursty_workload_properties(rng):
    from repro.simulator.workload import BurstyWorkload

    w = BurstyWorkload(
        base_rate=0.5, burst_rate=10.0,
        mean_base_duration=50.0, mean_burst_duration=10.0,
    )
    t = w.arrival_times(5000, rng)
    assert len(t) == 5000
    assert np.all(np.diff(t) >= 0)
    # Bursty arrivals are overdispersed: the squared coefficient of
    # variation of inter-arrival gaps clearly exceeds the Poisson 1.0.
    gaps = np.diff(t)
    cv2 = gaps.var() / gaps.mean() ** 2
    assert cv2 > 1.5
    with pytest.raises(SimulationError):
        BurstyWorkload(2.0, 1.0, 1.0, 1.0)
    with pytest.raises(SimulationError):
        BurstyWorkload(1.0, 2.0, 0.0, 1.0)
    with pytest.raises(SimulationError):
        w.arrival_times(0)


def test_diurnal_workload_modulation(rng):
    from repro.simulator.workload import DiurnalWorkload

    w = DiurnalWorkload(base_rate=2.0, amplitude=0.8, period=100.0)
    t = w.arrival_times(20_000, rng)
    assert len(t) == 20_000
    assert np.all(np.diff(t) >= 0)
    # The sinusoid must show: arrivals near the peak phase clearly
    # outnumber arrivals near the trough phase.
    phase = np.mod(t, 100.0) / 100.0
    near_peak = np.sum(np.abs(phase - 0.25) < 0.1)
    near_trough = np.sum(np.abs(phase - 0.75) < 0.1)
    assert near_peak > 2 * near_trough
    # rate_at honours base_rate·(1 + A·sin(...)).
    assert w.rate_at(25.0) == pytest.approx(2.0 * 1.8)
    assert w.rate_at(75.0) == pytest.approx(2.0 * 0.2)
    with pytest.raises(SimulationError):
        DiurnalWorkload(0.0)
    with pytest.raises(SimulationError):
        DiurnalWorkload(1.0, amplitude=1.0)
    with pytest.raises(SimulationError):
        DiurnalWorkload(1.0, period=0.0)
    with pytest.raises(SimulationError):
        w.arrival_times(0)


def test_bursty_workload_drives_engine_bursts(rng):
    """Bursts must show up as queueing spikes downstream — the
    bottleneck-shift signal the KERT-BN edges model."""
    from repro.simulator.delays import Deterministic
    from repro.simulator.engine import Engine
    from repro.simulator.service import ServiceSpec
    from repro.simulator.workload import BurstyWorkload, OpenWorkload
    from repro.workflow.constructs import Activity

    wf = Activity("a")
    spec = [ServiceSpec("a", Deterministic(0.5))]

    bursty = BurstyWorkload(0.3, 6.0, 60.0, 15.0)
    calm = OpenWorkload(rate=1.0)
    r_bursty = Engine(wf, spec, rng=1).run(bursty.arrival_times(800, rng))
    r_calm = Engine(wf, spec, rng=2).run(
        calm.arrival_times(800, np.random.default_rng(3))
    )
    p95_bursty = np.percentile([r.response_time for r in r_bursty], 95)
    p95_calm = np.percentile([r.response_time for r in r_calm], 95)
    assert p95_bursty > 1.5 * p95_calm
