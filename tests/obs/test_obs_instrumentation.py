"""Hot-path instrumentation: the wired counters actually count.

Each test enables observability (via ``obs_active``), exercises one
instrumented subsystem, and checks the metric names documented in
docs/architecture.md.  The last test pins the disabled-mode contract:
with the flag off, instrumented code records nothing at all.
"""

import pytest

from repro.obs import runtime


def _counters(obs):
    return obs.snapshot()["metrics"]["counters"]


# --------------------------------------------------------------------- #
# Inference engine
# --------------------------------------------------------------------- #


def test_engine_query_counts_plan_compiles_and_cache_hits(
    obs_active, ediamond_discrete_model
):
    from repro.bn.inference.engine import CompiledDiscreteModel

    # A fresh engine (not the network's memoized one): its plan cache
    # must start cold for the compile/hit counts to be deterministic.
    net = ediamond_discrete_model.network
    engine = CompiledDiscreteModel(net)
    target = [ediamond_discrete_model.response]
    engine.query(target, {"X1": 0})
    engine.query(target, {"X1": 1})  # same signature: cached plan
    c = _counters(obs_active)
    assert c["engine.plan.compiles"] == 1
    assert c["engine.plan.cache_hits"] == 1
    assert c["engine.query.calls"] == 2
    h = obs_active.snapshot()["metrics"]["histograms"]
    assert h["engine.query.seconds"]["count"] == 2


def test_engine_query_batch_counts_rows(obs_active, ediamond_discrete_model):
    from repro.bn.inference.engine import CompiledDiscreteModel

    engine = CompiledDiscreteModel(ediamond_discrete_model.network)
    rows = [{"X1": 0}, {"X1": 1}, {"X1": 2}]
    engine.query_batch([ediamond_discrete_model.response], rows)
    c = _counters(obs_active)
    assert c["engine.query_batch.calls"] == 1
    assert c["engine.query_batch.rows"] == 3


# --------------------------------------------------------------------- #
# Serving: ModelServer + CircuitBreaker
# --------------------------------------------------------------------- #


def test_server_records_tiers_and_rejections(
    obs_active, ediamond_discrete_model
):
    from repro.serving.server import ModelServer

    model = ediamond_discrete_model
    srv = ModelServer(model, rng=0)
    svc = [n for n in model.network.nodes if n != model.response][0]
    ok = srv.query([model.response], {svc: 2}, binned=True)
    assert ok.ok
    bad = srv.query([model.response], {"martian": 1.0})
    assert bad.status == "rejected"
    c = _counters(obs_active)
    assert c["serving.queries"] == 2
    assert c["serving.status.ok"] == 1
    assert c["serving.status.rejected"] == 1
    assert c["serving.rejection_reasons"] >= 1
    assert c[f"serving.tier.{ok.tier}"] == 1


def test_breaker_transitions_are_counted(obs_active):
    from repro.serving.breaker import CircuitBreaker

    br = CircuitBreaker(failure_threshold=2, cooldown=1, name="probe")
    br.record_failure()
    br.record_failure()  # -> open
    assert br.state == "open"
    assert not br.allow()  # cooldown burn
    assert br.allow()  # -> half-open probe
    br.record_success()  # -> closed
    c = _counters(obs_active)
    assert c["serving.breaker.transitions"] == 3
    assert c["serving.breaker.probe.to_open"] == 1
    assert c["serving.breaker.probe.to_half-open"] == 1
    assert c["serving.breaker.probe.to_closed"] == 1
    g = obs_active.snapshot()["metrics"]["gauges"]
    assert g["serving.breaker.probe.open"] == 0.0


# --------------------------------------------------------------------- #
# Decentralized learning
# --------------------------------------------------------------------- #


def test_coordinator_round_metrics_and_span(
    obs_active, ediamond_env, ediamond_data
):
    from repro.decentralized.agent import linear_gaussian_fitter
    from repro.decentralized.coordinator import Coordinator

    train, _ = ediamond_data
    dag = ediamond_env.knowledge_structure()
    service_dag = dag.subgraph([n for n in dag.nodes if n != "D"])
    coord = Coordinator(service_dag, linear_gaussian_fitter())
    result = coord.learn_round(train)
    c = _counters(obs_active)
    assert c["decentralized.rounds"] == 1
    assert c["decentralized.agents.fresh"] == len(result.fresh)
    assert c["decentralized.agents.failed"] == 0
    h = obs_active.snapshot()["metrics"]["histograms"]
    assert h["decentralized.agent_fit_seconds"]["count"] == len(result.fresh)
    round_span = obs_active.OBS.tracer.find("decentralized.round")
    assert round_span is not None
    assert round_span.duration == pytest.approx(result.decentralized_seconds)
    assert len(round_span.children) == len(result.per_agent_seconds)


# --------------------------------------------------------------------- #
# Disabled mode
# --------------------------------------------------------------------- #


def test_disabled_mode_records_nothing(ediamond_discrete_model):
    from repro import obs
    from repro.serving.breaker import CircuitBreaker

    was_enabled = runtime.OBS.enabled
    runtime.OBS.enabled = False
    obs.reset()
    try:
        engine = ediamond_discrete_model.network.compiled()
        engine.query([ediamond_discrete_model.response], {"X1": 0})
        br = CircuitBreaker(failure_threshold=1, name="dark")
        br.record_failure()
        with obs.span("invisible") as sp:
            sp.annotate(k=1)  # the null span accepts and drops this
        snap = obs.snapshot()
        assert snap["enabled"] is False
        # reset() keeps previously created instruments registered (zeroed
        # in place), so the contract is: every value stayed at zero.
        assert all(v == 0 for v in snap["metrics"]["counters"].values())
        assert all(
            h["count"] == 0 for h in snap["metrics"]["histograms"].values()
        )
        assert snap["trace"] == []
    finally:
        obs.reset()
        runtime.OBS.enabled = was_enabled
