"""Thread-safety of the serving substrate + batch/single accounting parity.

A columnar batch tallies in :class:`ServerStats` like the same rows sent
as single queries, and the breaker / stats / engine plan cache keep
their invariants under a thread pool.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.bn.inference.engine import CompiledDiscreteModel
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serving.fallback import TIER_COMPILED, TIER_SWEEP
from repro.serving.server import (
    STATUS_REJECTED,
    ColumnarBatchResult,
    ModelServer,
    QueryResult,
    ServerStats,
)


def _svc(model, k=0):
    return [n for n in model.network.nodes if n != model.response][k]


def _mean(data, name):
    return float(np.mean(data[name]))


# --------------------------------------------------------------------- #
# Accounting parity: one columnar batch vs N single queries
# --------------------------------------------------------------------- #


def _serving_counters():
    """The non-zero ``serving.*`` counters, minus the breakers' own (a
    batch kernel fault is one more breaker failure than the rows see)."""
    counters = obs.snapshot()["metrics"]["counters"]
    return {
        k: v
        for k, v in counters.items()
        if v and k.startswith("serving.") and not k.startswith("serving.breaker.")
    }


def test_batch_and_single_paths_tally_identically(fresh_discrete_model, obs_on):
    """The accounting-equivalence contract: N rows sent as one columnar
    batch produce the same ServerStats and serving metrics as N binned
    single queries, on a healthy engine and on one whose kernels fail."""
    model = fresh_discrete_model
    svc = _svc(model)
    card = model.network.cardinalities[svc]
    states = np.array([0, card, 1, -1, 2])  # rows 1 and 3 out of range

    def boom(*args):
        raise RuntimeError("injected")

    for hook, tier in ((None, TIER_COMPILED), (boom, TIER_SWEEP)):
        batch_srv = ModelServer(model, rng=0)
        single_srv = ModelServer(model, rng=0)
        batch_srv.chain.engine.failure_hook = hook
        single_srv.chain.engine.failure_hook = hook
        obs.reset()
        cr = batch_srv.query_batch_columns([model.response], {svc: states})
        batch_counters = _serving_counters()
        obs.reset()
        single_results = [
            single_srv.query([model.response], {svc: int(s)}, binned=True)
            for s in states
        ]
        single_counters = _serving_counters()

        assert cr.ok and cr.tier == tier
        assert bool(cr.tier_errors) == (hook is not None)
        np.testing.assert_array_equal(cr.valid, [r.ok for r in single_results])
        answered = [r.value for r in single_results if r.ok]
        np.testing.assert_allclose(cr.pmfs, answered)
        for r in single_results:
            if not r.ok:
                assert r.status == STATUS_REJECTED

        b, s = batch_srv.stats.as_dict(), single_srv.stats.as_dict()
        # n_rows_rejected is the one deliberate asymmetry: it counts rows
        # rejected *inside batches* and has no single-query analogue.
        assert b.pop("n_rows_rejected") == 2
        assert s.pop("n_rows_rejected") == 0
        assert b == s
        # Its metric twin is the same asymmetry, and a masked batch row
        # carries no reasons of its own, where a rejected single does.
        assert batch_counters.pop("serving.rows_rejected") == 2
        assert single_counters.pop("serving.rejection_reasons") == 2
        assert batch_counters == single_counters
        degraded = single_counters.get("serving.degraded_answers", 0)
        assert degraded == (3 if hook is not None else 0)


def test_rejected_batch_counts_its_reasons(fresh_discrete_model, obs_on):
    """A refused batch adds its reasons to ``serving.rejection_reasons``
    like a refused single query does."""
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    floats = {_svc(model): np.zeros(4), "martian": np.zeros(4, dtype=int)}
    cr = srv.query_batch_columns([model.response], floats)
    assert cr.status == STATUS_REJECTED and len(cr.reasons) == 2
    counters = _serving_counters()
    assert counters["serving.status.rejected"] == 4
    assert counters["serving.rejection_reasons"] == 2


# --------------------------------------------------------------------- #
# Thread-safety: breaker / stats invariants under a pool
# --------------------------------------------------------------------- #


def test_circuit_breaker_invariants_under_threads():
    breaker = CircuitBreaker(failure_threshold=3, cooldown=5)
    rngs = [np.random.default_rng(i) for i in range(8)]

    def worker(w):
        rng = rngs[w]
        allowed = 0
        for _ in range(2000):
            if breaker.allow():
                allowed += 1
                if rng.random() < 0.3:
                    breaker.record_failure()
                else:
                    breaker.record_success()
        return allowed

    with ThreadPoolExecutor(8) as ex:
        allowed = sum(ex.map(worker, range(8)))
    # No lost updates or corrupted state machine: the breaker lands in a
    # legal state and its counters balance against the call volume.
    assert breaker.state in (CLOSED, OPEN, HALF_OPEN)
    assert allowed + breaker.n_refused == 8 * 2000
    assert breaker.n_trips >= 1
    assert breaker.n_refused >= 0


def test_server_stats_lose_no_counts_under_threads():
    stats = ServerStats()
    per_worker = {"ok": 500, "rejected": 300, "failed": 100}

    def worker(_):
        for _ in range(per_worker["ok"]):
            stats._count(QueryResult(status="ok", tier="compiled-einsum"))
        for _ in range(per_worker["rejected"]):
            stats._count(QueryResult(status="rejected"))
        for _ in range(per_worker["failed"]):
            stats._count(
                QueryResult(status="failed", deadline_exceeded=True)
            )
        # One columnar batch: 3 rows answered, 7 masked out.
        stats._count(
            ColumnarBatchResult(
                status="ok", n_rows=10, n_valid=3, tier="compiled-einsum"
            )
        )

    with ThreadPoolExecutor(8) as ex:
        list(ex.map(worker, range(8)))
    assert stats.n_ok == 8 * (500 + 3)
    assert stats.n_rejected == 8 * (300 + 7)
    assert stats.n_failed == 8 * 100
    assert stats.n_deadline_exceeded == 8 * 100
    assert stats.n_queries == 8 * (900 + 10)
    assert stats.n_rows_rejected == 8 * 7
    assert stats.tier_counts["compiled-einsum"] == 8 * (500 + 3)


# --------------------------------------------------------------------- #
# Thread-safety: engine plan cache
# --------------------------------------------------------------------- #


def test_plan_cache_consistent_under_concurrent_mixed_signatures(
    fresh_discrete_model,
):
    """Hammer a 4-slot LRU with 8 threads cycling 8 signatures: lookups,
    compiles, and evictions race, yet answers stay correct and the cache
    bookkeeping balances."""
    net = fresh_discrete_model.network
    engine = CompiledDiscreteModel(net, plan_cache_size=4)
    nodes = list(net.nodes)
    response = fresh_discrete_model.response
    others = [n for n in nodes if n != response]
    signatures = [
        ((response,), {others[i % len(others)]: 0}) for i in range(8)
    ] + [((others[0],), {response: 0})]

    reference = {
        i: CompiledDiscreteModel(net).query(v, e).values
        for i, (v, e) in enumerate(signatures)
    }

    def worker(w):
        rng = np.random.default_rng(w)
        for _ in range(200):
            i = int(rng.integers(len(signatures)))
            v, e = signatures[i]
            np.testing.assert_allclose(
                engine.query(v, e).values, reference[i], atol=1e-12
            )

    with ThreadPoolExecutor(8) as ex:
        list(ex.map(worker, range(8)))

    cs = engine.cache_stats()
    assert cs["plans"] <= cs["capacity"] == 4
    # Compiles minus evictions is exactly what's resident — no plan was
    # double-counted or lost in a race.
    assert cs["compiles"] - cs["evictions"] == cs["plans"]
    # Every query either hit or compiled (racing losers count as hits).
    assert cs["hits"] + cs["compiles"] == 8 * 200


def test_threaded_server_queries_match_single_thread(
    fresh_discrete_model, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    svc_a, svc_b = _svc(model, 0), _svc(model, 1)
    evs = [
        {svc_a: _mean(train, svc_a)},
        {svc_b: _mean(train, svc_b)},
        {svc_a: _mean(train, svc_a), svc_b: _mean(train, svc_b)},
    ]
    expected = [
        ModelServer(model, rng=0).query([model.response], ev).value
        for ev in evs
    ]

    def worker(w):
        for j in range(60):
            i = (w + j) % len(evs)
            r = srv.query([model.response], evs[i])
            assert r.ok
            np.testing.assert_allclose(r.value, expected[i])

    with ThreadPoolExecutor(6) as ex:
        list(ex.map(worker, range(6)))
    assert srv.stats.n_ok == 6 * 60 == srv.stats.n_queries
