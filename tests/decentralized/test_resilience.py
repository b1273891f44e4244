"""Fault tolerance: channel faults, retries, stale fallback, accounting.

The chaos tests use seeded RNGs throughout, so every drop/duplicate/delay
pattern — and therefore every fresh/stale/failed partition — is
deterministic and replayable.
"""

import time

import numpy as np
import pytest

from repro.bn.data import Dataset
from repro.bn.learning.mle import fit_linear_gaussian
from repro.decentralized.agent import LearningAgent, linear_gaussian_fitter
from repro.decentralized.coordinator import Coordinator
from repro.decentralized.messaging import Channel, ChannelFaults, Network
from repro.decentralized.resilience import (
    FAILED,
    FRESH,
    STALE,
    RetryPolicy,
    RoundState,
)
from repro.exceptions import CommunicationError, LearningError

CHAOS_SEED = 42


# --------------------------------------------------------------------- #
# Fault and policy configuration
# --------------------------------------------------------------------- #


def test_channel_faults_validation():
    with pytest.raises(CommunicationError):
        ChannelFaults(drop=1.0)
    with pytest.raises(CommunicationError):
        ChannelFaults(duplicate=-0.1)
    with pytest.raises(CommunicationError):
        ChannelFaults(delay_seconds=-1.0)
    assert not ChannelFaults().any
    assert ChannelFaults(drop=0.1).any


def test_retry_policy_validation_and_backoff():
    with pytest.raises(LearningError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(LearningError):
        RetryPolicy(backoff_base=-0.1)
    with pytest.raises(LearningError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(LearningError):
        RetryPolicy(fit_timeout=0.0)
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
    assert policy.backoff(1) == pytest.approx(0.1)
    assert policy.backoff(3) == pytest.approx(0.4)


# --------------------------------------------------------------------- #
# Channel fault injection
# --------------------------------------------------------------------- #


def test_transmit_drop_duplicate_delay_accounting():
    rng = np.random.default_rng(CHAOS_SEED)
    ch = Channel("p", "x", faults=ChannelFaults(drop=0.3, duplicate=0.3, delay=0.3))
    delivered = []
    for _ in range(200):
        delivered.extend(ch.transmit("p", np.zeros(10), rng))
    assert ch.n_sent == 200
    assert ch.n_dropped > 0
    assert ch.n_duplicated > 0
    assert ch.n_delayed > 0
    # Every surviving transfer delivered once, duplicated ones twice.
    assert ch.n_delivered == (200 - ch.n_dropped) + ch.n_duplicated
    assert len(delivered) == ch.n_delivered
    assert ch.bytes_delivered == 80 * ch.n_delivered
    assert ch.delay_seconds == pytest.approx(0.05 * ch.n_delayed)
    assert any(m.latency > 0 for m in delivered)


def test_transmit_is_deterministic_under_seed():
    def run():
        rng = np.random.default_rng(CHAOS_SEED)
        ch = Channel("p", "x", faults=ChannelFaults(drop=0.4, duplicate=0.2))
        for _ in range(100):
            ch.transmit("p", np.zeros(5), rng)
        return (ch.n_dropped, ch.n_duplicated, ch.n_delivered)

    assert run() == run()


def test_faultless_transmit_equals_send():
    ch = Channel("p", "x")
    out = ch.transmit("p", np.zeros(7))
    assert len(out) == 1
    assert ch.n_sent == ch.n_delivered == 1
    assert ch.n_dropped == ch.n_duplicated == ch.n_delayed == 0


# --------------------------------------------------------------------- #
# Agent re-delivery
# --------------------------------------------------------------------- #


def test_agent_duplicate_redelivery_last_copy_wins(rng):
    agent = LearningAgent("x", ("p",), linear_gaussian_fitter())
    agent.collect_local(rng.normal(size=50))
    ch = Channel("p", "x")
    agent.receive(ch.send("p", np.zeros(50)))
    assert agent.n_duplicates == 0
    agent.receive(ch.send("p", np.ones(50)))  # duplicate: overwrite, count
    assert agent.n_duplicates == 1
    assert agent.n_received == 2
    np.testing.assert_array_equal(agent._columns["p"], np.ones(50))
    assert agent.ready


def test_agent_begin_round_clears_stale_columns(rng):
    agent = LearningAgent("x", ("p",), linear_gaussian_fitter())
    agent.collect_local(rng.normal(size=50))
    ch = Channel("p", "x")
    msg = ch.transmit("p", rng.normal(size=50), rng,
                      faults=ChannelFaults(delay=0.9, delay_seconds=0.2))
    for m in msg:
        agent.receive(m)
    if msg:
        assert agent.last_wait_seconds in (0.0, 0.2)
    agent.begin_round()
    assert not agent.ready
    assert agent.missing == ("x", "p")
    assert agent.last_wait_seconds == 0.0


# --------------------------------------------------------------------- #
# Per-round network accounting (the double-count bugfix)
# --------------------------------------------------------------------- #


def _chain_data(n=120, seed=0):
    r = np.random.default_rng(seed)
    a = r.normal(1.0, 0.1, size=n)
    b = 0.5 * a + r.normal(0.0, 0.1, size=n)
    c = 0.25 * b + r.normal(0.0, 0.1, size=n)
    return Dataset({"a": a, "b": b, "c": c})


def _chain_dag():
    from repro.bn.dag import DAG

    return DAG(nodes=["a", "b", "c"], edges=[("a", "b"), ("b", "c")])


def test_repeated_rounds_report_per_round_deltas():
    coord = Coordinator(_chain_dag(), linear_gaussian_fitter())
    r1 = coord.learn_round(_chain_data(seed=1))
    r2 = coord.learn_round(_chain_data(seed=2))
    # Each round ships one column per structure edge — no accumulation.
    assert r1.network_summary["n_messages"] == 2
    assert r2.network_summary["n_messages"] == 2
    assert r2.network_summary["total_bytes"] == r1.network_summary["total_bytes"]
    assert (r1.round_index, r2.round_index) == (0, 1)
    # Cumulative accounting still available on the network itself.
    assert coord.network.summary()["n_messages"] == 4


def test_channels_keep_counters_not_history():
    ch = Channel("p", "x")
    for _ in range(1000):
        ch.send("p", np.zeros(100))
    assert ch.n_delivered == 1000
    assert ch.total_bytes == 1000 * 800
    assert not hasattr(ch, "delivered")  # no unbounded message list


# --------------------------------------------------------------------- #
# Degraded rounds: retries, timeouts, stale fallback
# --------------------------------------------------------------------- #


def test_chaos_round_completes_with_stale_substitution():
    """Acceptance: 20% parent-column drop + one timed-out agent still
    yields a complete result, with fresh/stale/failed reported."""

    slow = {"node": None}

    def fitter(data, variable, parents):
        if variable == slow["node"]:
            time.sleep(0.08)
        return fit_linear_gaussian(data, variable, parents)

    def run():
        slow["node"] = None
        coord = Coordinator(
            _chain_dag(),
            fitter,
            retry_policy=RetryPolicy(max_attempts=4, fit_timeout=0.05),
            rng=CHAOS_SEED,
        )
        healthy = coord.learn_round(_chain_data(seed=1))
        assert healthy.complete and not healthy.degraded
        assert set(healthy.fresh) == {"a", "b", "c"}
        # Chaos: drop 20% of parent-column transfers, slow one agent past
        # its fit budget.
        coord.network.faults = ChannelFaults(drop=0.2)
        slow["node"] = "b"
        r = coord.learn_round(_chain_data(seed=2))
        return coord, r

    coord, result = run()
    assert result.complete                      # every node has a CPD
    assert set(result.cpds) == {"a", "b", "c"}
    assert result.degraded
    assert "b" in result.stale                  # timed out -> last-known-good
    assert "timeout" in result.outcomes["b"].error
    assert result.outcomes["b"].age == 1
    assert not result.failed
    assert set(result.fresh) | set(result.stale) == {"a", "b", "c"}
    # The substituted CPD is exactly round 1's fit for b.
    assert result.cpds["b"] is coord.state.fallback("b")

    # Deterministic under the fixed seed: the partition repeats exactly.
    _, again = run()
    assert again.fresh == result.fresh
    assert again.stale == result.stale
    assert again.network_summary["n_dropped"] == result.network_summary["n_dropped"]


def test_retry_recovers_dropped_columns():
    # Heavy drop rate but generous retries: deliveries eventually land,
    # and the retry waits are charged to the agents' wait accounting.
    from repro.bn.dag import DAG

    children = [f"c{i}" for i in range(6)]
    dag = DAG(nodes=["root", *children],
              edges=[("root", c) for c in children])
    r = np.random.default_rng(3)
    root = r.normal(1.0, 0.1, size=100)
    cols = {"root": root}
    for c in children:
        cols[c] = 0.5 * root + r.normal(0.0, 0.1, size=100)
    coord = Coordinator(
        dag,
        linear_gaussian_fitter(),
        retry_policy=RetryPolicy(max_attempts=8, backoff_base=0.01),
        faults=ChannelFaults(drop=0.5),
        rng=CHAOS_SEED,
    )
    result = coord.learn_round(Dataset(cols))
    assert result.complete
    assert result.network_summary["n_dropped"] > 0
    retried = [n for n, o in result.outcomes.items() if o.attempts > 1]
    assert retried  # at least one node needed a re-request at drop=0.5
    assert any(result.per_agent_wait_seconds[n] > 0 for n in retried)
    # Delivery waits are part of the concurrent wall clock.
    assert result.decentralized_seconds >= max(
        result.per_agent_seconds[n] + result.per_agent_wait_seconds[n]
        for n in result.per_agent_seconds
    )


def test_first_round_failure_without_fallback_is_reported():
    # Everything dropped, no retries, no earlier round: non-root nodes
    # have no CPD at all and are reported failed — not raised.
    coord = Coordinator(
        _chain_dag(),
        linear_gaussian_fitter(),
        retry_policy=RetryPolicy(max_attempts=1),
        faults=ChannelFaults(drop=0.999),
        rng=CHAOS_SEED,
    )
    result = coord.learn_round(_chain_data(seed=4))
    assert not result.complete
    assert "a" in result.fresh            # root node needs no messages
    assert set(result.failed) == {"b", "c"}
    assert "b" not in result.cpds
    assert result.outcomes["c"].error is not None


def test_strict_mode_raises_instead_of_degrading():
    coord = Coordinator(
        _chain_dag(),
        linear_gaussian_fitter(),
        retry_policy=RetryPolicy(max_attempts=1),
        faults=ChannelFaults(drop=0.999),
        rng=CHAOS_SEED,
        strict=True,
    )
    with pytest.raises(LearningError):
        coord.learn_round(_chain_data(seed=5))


def test_fit_exception_falls_back_to_stale():
    calls = {"fail": False}

    def fitter(data, variable, parents):
        if calls["fail"] and variable == "c":
            raise LearningError("degenerate window")
        return fit_linear_gaussian(data, variable, parents)

    coord = Coordinator(_chain_dag(), fitter)
    first = coord.learn_round(_chain_data(seed=6))
    assert first.complete
    calls["fail"] = True
    second = coord.learn_round(_chain_data(seed=7))
    assert second.complete
    assert second.stale == ("c",)
    assert "degenerate window" in second.outcomes["c"].error
    assert second.cpds["c"] is first.cpds["c"]
    # Ages keep growing while the node stays broken.
    third = coord.learn_round(_chain_data(seed=8))
    assert third.outcomes["c"].age == 2


def test_missing_column_in_window_degrades_not_crashes():
    coord = Coordinator(_chain_dag(), linear_gaussian_fitter())
    first = coord.learn_round(_chain_data(seed=9))
    assert first.complete
    data = _chain_data(seed=10)
    partial = Dataset({"a": data["a"], "c": data["c"]})  # "b" never monitored
    second = coord.learn_round(partial)
    # b has no local column and c misses its parent: both go stale.
    assert set(second.stale) == {"b", "c"}
    assert second.complete


def test_round_state_bookkeeping():
    state = RoundState()
    assert state.fallback("x") is None
    state.record_fresh("x", "cpd-1")
    state.close_round(["x"])
    assert state.age_of("x") == 0
    state.close_round([])  # x not refreshed
    assert state.age_of("x") == 1
    assert state.snapshot() == {"x": 1}
    assert state.rounds_completed == 2
    state.record_fresh("x", "cpd-2")
    assert state.fallback("x") == "cpd-2"


def test_seeded_chaos_round_is_pinned():
    """A chaos round's fault pattern is a function of the seed alone.

    The per-channel tallies below must hold under every
    ``PYTHONHASHSEED`` (CI runs this directory under two), so no fault
    draw may follow set or hash order over node names.
    """
    from repro.bn.dag import DAG

    nodes = ["root", "a", "b", "c", "d", "e"]
    dag = DAG(
        nodes=nodes,
        edges=[("root", "a"), ("root", "b"), ("a", "c"), ("b", "c"),
               ("c", "d"), ("a", "e"), ("d", "e")],
    )
    r = np.random.default_rng(5)
    data = Dataset({n: r.normal(1.0, 0.1, size=50) for n in nodes})
    coord = Coordinator(
        dag,
        linear_gaussian_fitter(),
        retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.01),
        faults=ChannelFaults(drop=0.5, duplicate=0.3, delay=0.3),
        rng=CHAOS_SEED,
    )
    result = coord.learn_round(data)
    # (sent, dropped, duplicated, delayed) per channel
    assert {
        (c.sender, c.recipient): (c.n_sent, c.n_dropped, c.n_duplicated, c.n_delayed)
        for c in coord.network
    } == {
        ("root", "a"): (1, 0, 0, 0),
        ("root", "b"): (1, 0, 0, 1),
        ("a", "c"): (1, 0, 1, 0),
        ("b", "c"): (2, 2, 0, 0),
        ("c", "d"): (2, 1, 0, 1),
        ("a", "e"): (1, 0, 0, 0),
        ("d", "e"): (2, 1, 0, 0),
    }
    assert {n: (o.status, o.attempts) for n, o in result.outcomes.items()} == {
        "root": (FRESH, 1),
        "a": (FRESH, 1),
        "b": (FRESH, 1),
        "c": (FAILED, 2),
        "d": (FRESH, 2),
        "e": (FRESH, 2),
    }
