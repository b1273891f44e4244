"""The compiled engine against the callback reference, with exact equality.

``_reference_engine`` implements the engine's written draw contract in
callback form: closures and a ``_Job`` per activity, per-service delay
blocks and the shared routing stream re-derived from the distributions'
parameters.  For any seed both must produce the same events in the same
order from the same generator draws, so every record, the utilization
and the generator's final state are compared with ``==``, never
approximately.  Golden digests pin ``env.simulate`` on the two bench
scenarios to the bytes the reference engine produces, and both engines
are checked against them.
"""

import hashlib

import numpy as np
import pytest

import repro.simulator.environment as environment
from repro.simulator.delays import (
    GG1,
    Deterministic,
    Exponential,
    Gamma,
    LogNormal,
    MMk,
    Scaled,
    Shifted,
    Uniform,
)
from repro.simulator.engine import Engine
from repro.simulator.faults import Degradation, FaultSchedule
from repro.simulator.service import Host, ServiceSpec
from repro.workflow.constructs import Activity, Choice, Loop, Parallel, Sequence
from repro.workflow.generator import random_workflow
from tests.simulator._reference_engine import ReferenceEngine

TOPOLOGIES = {
    "sequence": dict(p_parallel=0.0),
    "parallel": dict(p_parallel=1.0),
    "choice": dict(p_parallel=0.0, p_choice=1.0),
    "loop": dict(p_parallel=0.3, p_loop=0.5, loop_continue_prob=0.6),
    "mixed": dict(p_parallel=0.35, p_choice=0.3, p_loop=0.2),
}


def delay_families():
    """One of each delay family, GG1 edge cases and nested wrappers."""
    return [
        Exponential(0.4),
        LogNormal(0.3, 0.5),
        Gamma(2.0, 0.15),
        Uniform(0.1, 0.6),
        Deterministic(0.25),
        MMk(0.3, 0.7, servers=2),
        GG1(0.3, 0.6, scv_arrival=1.0, scv_service=0.5),
        GG1(0.3, 0.6, scv_arrival=1.0, scv_service=0.0),  # constant service
        GG1(0.3, 0.6, scv_arrival=0.0, scv_service=0.0),  # zero wait
        Scaled(Shifted(LogNormal(0.2, 0.3), 0.05), 1.4),
        Shifted(Scaled(MMk(0.2, 0.5), 0.8), 0.02),
        Scaled(Scaled(GG1(0.25, 0.4), 0.9), 1.2),
    ]


def build_case(topology, seed, queueing, contention, couple, demand, faults):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 19))
    workflow = random_workflow(n, rng, **TOPOLOGIES[topology])
    names = workflow.services()
    families = delay_families()
    hosts = [
        Host("h0", contention=contention, speed=1.0),
        Host("h1", contention=contention / 2, speed=1.7),
        Host("h2", contention=0.0, speed=0.6),
    ]
    services = [
        ServiceSpec(
            name,
            families[(i + seed) % len(families)],
            host=f"h{int(rng.integers(0, 4))}",  # "h3" is auto-created
            demand_sensitivity=float(rng.uniform(0.0, 1.0)) if demand else 0.0,
            upstream_coupling=float(rng.uniform(0.0, 0.4)) if couple else 0.0,
            queueing=queueing and bool(rng.random() < 0.8),
        )
        for i, name in enumerate(names)
    ]
    arrivals = np.cumsum(rng.exponential(0.35, size=150))
    schedule = None
    if faults:
        horizon = float(arrivals[-1])
        windows = []
        for name in names[::3]:
            start = float(rng.uniform(0.0, horizon))
            windows.append(Degradation(name, start, start + horizon / 4, 2.3))
            windows.append(  # overlaps, then abuts, the first window
                Degradation(name, start + horizon / 8, start + horizon / 4, 1.7)
            )
            windows.append(
                Degradation(name, start + horizon / 4, start + horizon / 3, 3.1)
            )
        schedule = FaultSchedule(tuple(windows))
    kwargs = dict(demand_sigma=0.4 if demand else 0.0, faults=schedule)
    return workflow, services, hosts, arrivals, kwargs


def assert_same_run(workflow, services, hosts, arrivals, kwargs, seed):
    engine = Engine(
        workflow, services, hosts, rng=np.random.default_rng(seed), **kwargs
    )
    oracle = ReferenceEngine(
        workflow, services, hosts, rng=np.random.default_rng(seed), **kwargs
    )
    got, want = engine.run(arrivals), oracle.run(arrivals)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.request_id == w.request_id
        assert g.arrival == w.arrival
        assert g.completion == w.completion
        assert g.demand == w.demand
        assert g.elapsed == w.elapsed
        assert g.invocations == w.invocations
        assert list(g.elapsed) == list(w.elapsed)  # same completion order
    horizon = float(arrivals[-1])
    assert engine.utilization(horizon) == oracle.utilization(horizon)
    assert engine.rng.bit_generator.state == oracle.rng.bit_generator.state


@pytest.mark.parametrize("topology", list(TOPOLOGIES))
@pytest.mark.parametrize(
    "config",
    [
        dict(queueing=True, contention=0.3, couple=True, demand=True, faults=True),
        dict(queueing=False, contention=0.0, couple=False, demand=False, faults=False),
        dict(queueing=True, contention=0.0, couple=True, demand=False, faults=True),
        dict(queueing=False, contention=0.5, couple=False, demand=True, faults=False),
    ],
    ids=["everything", "nothing", "queue_couple_fault", "contention_demand"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_compiled_engine_matches_reference(topology, config, seed):
    case = build_case(topology, seed, **config)
    assert_same_run(*case, seed=seed + 100)


def test_engine_reused_across_runs_matches_reference():
    workflow, services, hosts, arrivals, kwargs = build_case(
        "mixed", 7, True, 0.3, True, True, True
    )
    engine = Engine(workflow, services, hosts, rng=3, **kwargs)
    oracle = ReferenceEngine(workflow, services, hosts, rng=3, **kwargs)
    for _ in range(2):  # the second run starts from a reset, warm engine
        got, want = engine.run(arrivals), oracle.run(arrivals)
        assert [r.elapsed for r in got] == [r.elapsed for r in want]
        assert [r.completion for r in got] == [r.completion for r in want]
    assert engine.rng.bit_generator.state == oracle.rng.bit_generator.state


@pytest.mark.parametrize("delay", ["lognormal", "mmk", "gg1"])
def test_corpus_scenario_matches_reference(delay):
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    spec = ScenarioSpec("mixed", 30, delay, arrivals="diurnal", failure_storm=True)
    env = build_scenario(spec, seed=11).env
    arrivals = env.workload.arrival_times(200, np.random.default_rng(4))
    kwargs = dict(demand_sigma=env.demand_sigma, faults=env.faults)
    assert_same_run(env.workflow, env.services, env.hosts, arrivals, kwargs, seed=5)


def test_long_run_refills_past_the_block_cap():
    """Services a, d, e and the routing stream take 3000+ draws each, so
    they refill at the 1024 cap more than once (32 + ... + 512 = 992)."""
    workflow = Sequence(
        [
            Activity("a"),
            Loop(Choice([Activity("b"), Activity("c")], [0.3, 0.7]), 0.5),
            Parallel([Activity("d"), Activity("e")]),
        ]
    )
    families = delay_families()
    services = [
        ServiceSpec(name, families[i * 2], host="h", queueing=i % 2 == 0)
        for i, name in enumerate("abcde")
    ]
    hosts = [Host("h", contention=0.1)]
    arrivals = np.cumsum(np.random.default_rng(9).exponential(0.5, size=3000))
    kwargs = dict(demand_sigma=0.2, faults=None)
    assert_same_run(workflow, services, hosts, arrivals, kwargs, seed=12)


# --------------------------------------------------------------------- #
# Golden digests of env.simulate, computed with the reference engine
# --------------------------------------------------------------------- #


def dataset_digest(data):
    h = hashlib.sha256()
    for name in data.columns:
        h.update(name.encode() + b"\0")
        h.update(np.ascontiguousarray(data[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def ediamond_run():
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    rng = np.random.default_rng(0)
    data = ediamond_scenario().simulate(250, rng=rng)
    return dataset_digest(data), rng.bit_generator.state["state"]["state"]


def mixed80_storm_run():
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    spec = ScenarioSpec("mixed", 80, "gg1", arrivals="diurnal", failure_storm=True)
    env = build_scenario(spec, seed=20260808).env
    rng = np.random.default_rng(0)
    data = env.simulate(120, rng=rng)
    return dataset_digest(data), rng.bit_generator.state["state"]["state"]


GOLDEN = {
    ediamond_run: (
        "d600beda19dc105a3c86a8764e59fbe744e746456bb239c5d66ce5e29c8c254c",
        300211251857066581702314681655535673621,
    ),
    mixed80_storm_run: (
        "21bf188b9665b76383bad73031bdc09f5d01fa179ec0f5335bfbe759f937bdf1",
        337314318728553189479382916787808250100,
    ),
}


def test_ediamond_simulate_golden_digest():
    assert ediamond_run() == GOLDEN[ediamond_run]


def test_mixed80_storm_simulate_golden_digest():
    assert mixed80_storm_run() == GOLDEN[mixed80_storm_run]


@pytest.mark.parametrize("run", list(GOLDEN), ids=lambda run: run.__name__)
def test_golden_digests_come_from_the_reference(run, monkeypatch):
    """The pinned values are what ``env.simulate`` gives on the reference."""
    monkeypatch.setattr(environment, "Engine", ReferenceEngine)
    assert run() == GOLDEN[run]
