"""End-to-end serving chaos: the PR's acceptance scenario.

One seeded run drives well-formed and malformed traffic through a
registry-backed :class:`ModelServer` while the engine and the
variable-elimination tier fail in bursts.  The resilience contract under test:

- zero uncaught exceptions across the whole run;
- every well-formed query is *answered*, with the fallback tier that
  produced the answer recorded;
- malformed rows are rejected individually: single queries with
  reasons, columnar batch rows through the ``valid`` mask;
- the compiled tier's circuit breaker trips within its threshold;
- a poisoned monitoring window is quarantined by the quality gate;
- publishing a regressed model trips the accuracy tripwire, the
  registry auto-rolls back, and the server follows via ``refresh()``.

Everything is seeded (CHAOS_SEED) so failures replay exactly.
"""

import numpy as np
import pytest

from repro import obs
from repro.bn.data import Dataset
from repro.serving.breaker import OPEN
from repro.serving.fallback import (
    CHAIN,
    TIER_COMPILED,
    TIER_PRIOR,
    TIER_SAMPLING,
    TIER_SWEEP,
)
from repro.serving.quality import AccuracyTripwire, DataQualityGate
from repro.serving.registry import ModelRegistry
from repro.serving.server import ModelServer

CHAOS_SEED = 42
N_QUERIES = 520


def _build(env, data, n_bins=4):
    from repro.core.kertbn import build_discrete_kertbn

    return build_discrete_kertbn(env.workflow, data, n_bins=n_bins)


def test_chaos_serving_end_to_end(tmp_path, ediamond_env, ediamond_data, obs_on):
    train, test = ediamond_data
    rng = np.random.default_rng(CHAOS_SEED)

    model = _build(ediamond_env, train)
    registry = ModelRegistry(str(tmp_path / "reg"), keep=4)
    registry.publish(model)
    server = ModelServer(registry, rng=np.random.default_rng(CHAOS_SEED))
    response = server.model.response
    services = [n for n in server.model.network.nodes if n != response]

    # ---------------- fault injection (seeded, burst-shaped) ---------- #
    chain = server.chain
    phase = {"engine_down": False, "sweep_down": False}

    def hook(kind, *args):
        if phase["engine_down"]:
            raise RuntimeError("chaos: engine fault")

    real_sweep = chain._sweep_pmf

    def flaky_sweep(variables, evidence):
        if phase["sweep_down"]:
            raise RuntimeError("chaos: sweep fault")
        return real_sweep(variables, evidence)

    chain.engine.failure_hook = hook
    chain._sweep_pmf = flaky_sweep

    # ---------------- mixed traffic ----------------------------------- #
    tiers_seen = set()
    n_well_formed = n_answered = n_malformed = n_rejected = 0
    for i in range(N_QUERIES):
        # Bursts: engine down 30% of the time, sweep also down inside a
        # slice of those bursts (forcing the sampling tier).
        phase["engine_down"] = (i % 50) >= 35
        phase["sweep_down"] = (i % 50) >= 45
        svc = services[int(rng.integers(len(services)))]
        mean = float(rng.uniform(0.5, 1.5)) * float(np.mean(train[svc]))
        kind = i % 6
        if kind == 0:
            result = server.query([response], {svc: mean})
            well_formed = True
        elif kind == 1:
            result = server.query([response], {svc: float("nan")})
            well_formed = False
        elif kind == 2:
            result = server.query([response], {"no-such-service": 1.0})
            well_formed = False
        elif kind == 3:
            result = server.query([response], {svc: 99}, binned=True)
            well_formed = False
        elif kind == 4:
            result = server.violation_prob(
                float(rng.uniform(1.0, 3.0)), {svc: mean}
            )
            well_formed = True
        else:
            # One binned columnar batch; its middle row is out of range.
            disc = server.model.discretizer
            states = np.array(
                [
                    disc.state_of(svc, mean),
                    server.model.network.cardinalities[svc],
                    disc.state_of(svc, mean * 1.1),
                ]
            )
            batch = server.query_batch_columns([response], {svc: states})
            assert batch.ok and batch.tier in CHAIN
            np.testing.assert_array_equal(batch.valid, [True, False, True])
            assert batch.n_valid == len(batch.pmfs) == 2
            np.testing.assert_allclose(batch.pmfs.sum(axis=1), 1.0)
            tiers_seen.add(batch.tier)
            n_well_formed += 2
            n_answered += batch.n_valid
            n_malformed += 1
            n_rejected += 1
            continue
        if well_formed:
            n_well_formed += 1
            # the resilience contract: answered, with provenance
            assert result.status == "ok", (i, result)
            assert result.tier in CHAIN
            tiers_seen.add(result.tier)
            n_answered += 1
            if result.value is not None and np.ndim(result.value) > 0:
                assert float(np.sum(result.value)) == pytest.approx(1.0)
        else:
            n_malformed += 1
            assert result.status == "rejected" and result.reasons
            n_rejected += 1

    # Traffic accounting: nothing silently dropped, nothing crashed.
    assert n_well_formed == n_answered
    assert n_malformed == n_rejected
    assert n_well_formed + n_malformed >= N_QUERIES

    # Degradation was real: every non-terminal tier answered something.
    assert TIER_COMPILED in tiers_seen
    assert TIER_SWEEP in tiers_seen
    assert TIER_SAMPLING in tiers_seen

    # The compiled breaker tripped within threshold during the bursts.
    breaker = server.breakers[TIER_COMPILED]
    assert breaker.n_trips >= 1
    counters = obs.snapshot()["metrics"]["counters"]
    assert counters["serving.status.ok"] == n_answered
    assert counters["serving.status.rejected"] >= n_rejected

    # Expired deadlines degrade to the cached prior, still answering.
    slow_server = ModelServer(model, deadline_seconds=1e-9, rng=0)
    r = slow_server.query([response], {services[0]: 1.0})
    assert r.ok and r.tier == TIER_PRIOR and r.deadline_exceeded

    # ---------------- data-quality quarantine ------------------------- #
    gate = DataQualityGate(
        columns=(*services, response), min_rows=10, drift_threshold=6.0
    )
    n = train.n_rows
    third = n // 3
    for k in range(3):
        window = Dataset(
            {c: train[c][k * third:(k + 1) * third] for c in train.columns}
        )
        assert gate.inspect(window).accepted
    poisoned = Dataset(
        {c: np.asarray(train[c][:third]) * 40.0 for c in train.columns}
    )
    verdict = gate.inspect(poisoned)
    assert not verdict.accepted
    assert any("drift" in r for r in verdict.reasons)
    assert gate.quarantined and gate.quarantined[0][0] == 3

    # ---------------- accuracy tripwire auto-rollback ------------------ #
    chain.engine.failure_hook = None  # publishing path is healthy again
    noise = Dataset(
        {
            c: rng.uniform(0.1, 10.0, size=200)
            for c in (*services, response)
        }
    )
    bad_model = _build(ediamond_env, noise)
    tripwire = AccuracyTripwire(registry, max_regression=0.5)
    outcome = tripwire.publish_checked(bad_model, test)
    assert outcome.rolled_back
    assert registry.active_version == 1
    assert not registry.info(outcome.version).healthy
    # the server follows the rollback and keeps answering
    assert server.refresh() == 1
    final = server.query([response], {services[0]: float(np.mean(train[services[0]]))})
    assert final.ok


def test_chaos_run_is_deterministic(tmp_path, ediamond_env, ediamond_data):
    """Same seed -> same degrade/trip pattern (replayable chaos)."""
    train, _ = ediamond_data
    model = _build(ediamond_env, train)

    def run(tag):
        reg = ModelRegistry(str(tmp_path / tag), keep=3)
        reg.publish(model)
        srv = ModelServer(reg, rng=np.random.default_rng(CHAOS_SEED))
        phase = {"down": False}

        def hook(kind, *args):
            if phase["down"]:
                raise RuntimeError("chaos")

        srv.chain.engine.failure_hook = hook
        response = srv.model.response
        svc = [n for n in srv.model.network.nodes if n != response][0]
        trace = []
        for i in range(120):
            phase["down"] = (i % 20) >= 14
            r = srv.query([response], {svc: 0.5 + (i % 7) * 0.1})
            trace.append((r.status, r.tier))
        return trace, srv.breakers["compiled-einsum"].n_trips

    t1, trips1 = run("a")
    t2, trips2 = run("b")
    assert t1 == t2
    assert trips1 == trips2 >= 1
