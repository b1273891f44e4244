"""End-to-end observability acceptance.

Enable obs, serve a batch through :class:`ModelServer`, run one
decentralized learning round, then check the snapshot shows: nonzero
per-tier answer counts, a per-agent fit-time histogram, and a
``decentralized.round`` span whose duration is exactly the Sec.-3.4
max-over-agents time.  Finally the dashboard must render the same
state from inside the process.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import runtime


@pytest.fixture
def obs_active():
    was_enabled = runtime.OBS.enabled
    obs.enable()
    obs.reset()
    yield obs
    obs.reset()
    runtime.OBS.enabled = was_enabled


def _serve_batch(model):
    from repro.serving.server import ModelServer

    srv = ModelServer(model, rng=0)
    svc = [n for n in model.network.nodes if n != model.response][0]
    result = srv.query_batch_columns([model.response], {svc: np.arange(3)})
    assert result.ok and result.n_valid == 3
    return result


def _learn_round(ediamond_env, train):
    from repro.decentralized.agent import linear_gaussian_fitter
    from repro.decentralized.coordinator import Coordinator

    dag = ediamond_env.knowledge_structure()
    service_dag = dag.subgraph([n for n in dag.nodes if n != "D"])
    coord = Coordinator(service_dag, linear_gaussian_fitter())
    return coord.learn_round(train)


def test_snapshot_after_serving_and_learning(
    obs_active, ediamond_env, ediamond_data, ediamond_discrete_model
):
    train, _ = ediamond_data
    batch = _serve_batch(ediamond_discrete_model)
    round_result = _learn_round(ediamond_env, train)

    snap = obs.snapshot()
    counters = snap["metrics"]["counters"]

    # Serving answered through a tier and counted every row.
    tier_counts = {
        name: v for name, v in counters.items()
        if name.startswith("serving.tier.")
    }
    assert sum(tier_counts.values()) == batch.n_rows
    assert counters["serving.queries"] == batch.n_rows

    # Learning produced the per-agent fit-time histogram.
    fit_hist = snap["metrics"]["histograms"]["decentralized.agent_fit_seconds"]
    assert fit_hist["count"] == len(round_result.fresh) > 0
    assert counters["decentralized.rounds"] == 1

    # The round span carries the paper's max-over-agents time: with no
    # response CPD in this round, its duration equals the slowest
    # agent-span duration exactly.
    round_span = obs.OBS.tracer.find("decentralized.round")
    assert round_span is not None
    agent_spans = [
        c for c in round_span.children if c.name.startswith("agent:")
    ]
    assert len(agent_spans) == len(round_result.per_agent_seconds)
    assert round_span.duration == max(c.duration for c in agent_spans)
    assert round_span.duration == round_result.decentralized_seconds

    # The span tree is present in the JSON snapshot too.
    names = {sp["name"] for sp in snap["trace"]}
    assert "decentralized.round" in names


def test_dashboard_renders_live_state(obs_active, ediamond_discrete_model):
    from repro.obs.dashboard import render_terminal

    _serve_batch(ediamond_discrete_model)
    assert "serving.queries" in render_terminal(obs.snapshot())
    payload = json.loads(json.dumps(obs.snapshot(), default=str))
    assert payload["metrics"]["counters"]["serving.queries"] >= 3


def test_cli_trace_out_writes_snapshot(obs_active, tmp_path, capsys):
    from repro.cli import main

    out_path = tmp_path / "trace.json"
    code = main(["--trace-out", str(out_path), "registry", "list",
                 "--root", str(tmp_path / "registry")])
    assert code == 0
    assert "registry is empty" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["enabled"] is True
    span_names = {sp["name"] for sp in payload["trace"]}
    assert "cli.registry" in span_names


def test_coordinator_round_with_live_exporter(obs_active, ediamond_env,
                                             ediamond_data):
    """A decentralized learn round with the exporter live.  The trace
    tree must show one ``agent:<node>`` span per agent under
    ``decentralized.round``, the round must last as long as its slowest
    agent, and ``/metrics`` must serve valid Prometheus text containing
    the round's instruments.
    """
    import urllib.request

    from repro.obs.export import ExportServer

    train, _ = ediamond_data
    with ExportServer() as srv:
        result = _learn_round(ediamond_env, train)
        with urllib.request.urlopen(srv.url + "/metrics", timeout=5.0) as r:
            assert r.status == 200
            assert r.headers.get("Content-Type").startswith("text/plain")
            scrape = r.read().decode()

    # Agent spans sit under the round span, which carries the max agent cost.
    round_span = obs.OBS.tracer.find("decentralized.round")
    assert round_span is not None
    agent_spans = [
        c for c in round_span.children if c.name.startswith("agent:")
    ]
    assert {sp.name for sp in agent_spans} == {
        f"agent:{n}" for n in result.per_agent_seconds
    }
    assert round_span.duration == max(sp.duration for sp in agent_spans)
    assert round_span.duration == result.decentralized_seconds

    # The scrape is parseable exposition text with the round's counters.
    from tests.obs.test_obs_export import parse_prometheus

    samples = parse_prometheus(scrape)
    n_fresh = len(result.fresh)
    assert n_fresh == len(result.per_agent_seconds) > 0
    assert samples["repro_decentralized_rounds_total"] == 1
    assert samples["repro_decentralized_agents_fresh_total"] == n_fresh
    assert samples["repro_decentralized_agents_failed_total"] == 0
    inf_key = 'repro_decentralized_agent_fit_seconds_bucket{le="+Inf"}'
    assert samples[inf_key] == samples[
        "repro_decentralized_agent_fit_seconds_count"
    ] == n_fresh


def test_degraded_service_trips_slo_into_action(obs_active, tmp_path):
    """PR 5 acceptance, part 2: synthetically degrade a service until the
    *measured* stream breaches its SLO; the manager must act within one
    cycle on the SLO trigger even though the model's predicted violation
    probability stays inside policy.  The dashboard renders the
    aftermath (breach visible) from the live endpoint.
    """
    from repro.core.manager import (
        AutonomicManager,
        SLAPolicy,
        inject_degradation,
    )
    from repro.obs.dashboard import load_snapshot, render_html
    from repro.obs.export import ExportServer
    from repro.obs.slo import LatencyObjective, SLOMonitor
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    env = ediamond_scenario()
    # Park the model trigger (sky-high SLA threshold -> predicted
    # violation probability ~0) so the action is attributable to the
    # measured-SLO path alone.  Baseline eDiaMoND p95 sits near 3.5s;
    # an 8s objective stays green until the degradation lands.
    policy = SLAPolicy(threshold=1e6, max_violation_prob=0.99)
    monitor = SLOMonitor(
        [
            LatencyObjective(
                name="response_p95",
                histogram="manager.window.response_seconds",
                threshold_seconds=8.0,
            )
        ],
        window=3,
        min_points=30,
    )
    manager = AutonomicManager(
        env, policy, window_points=120, rng=0, slo_monitor=monitor
    )

    healthy = manager.run_cycle()
    assert healthy.slo_breaches == []
    assert not healthy.acted

    inject_degradation(env, "X5", 25.0)  # the measured stream now overruns
    with ExportServer(slo_monitor=monitor) as srv:
        degraded = manager.run_cycle()
        snap = load_snapshot(srv.url)

    assert degraded.slo_breaches, "degradation must trip the SLO monitor"
    assert degraded.trigger == "slo"
    assert degraded.acted, "the SLO breach must drive plan/execute in-cycle"
    assert degraded.violation_prob <= policy.max_violation_prob

    # The endpoint's snapshot carries SLO status; the dashboard shows it.
    assert snap["slo"]["objectives"], "exporter must attach SLO status"
    breached = [o for o in snap["slo"]["objectives"] if o["breached"]]
    assert breached
    html = render_html(snap)
    (tmp_path / "report.html").write_text(html)
    assert "BREACHED" in html
