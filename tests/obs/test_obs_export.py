"""Prometheus wire format and HTTP endpoint contracts.

The exposition rules checked here are the ones a real Prometheus server
parses by: ``_total``-suffixed counters, cumulative ``_bucket`` series
terminated by ``le="+Inf"``, ``_sum``/``_count`` pairs, and label-value
escaping.  A golden file pins the full rendering of a deterministic
registry, and a minimal text parser reads the scrape back so the test
asserts semantics (sample values) rather than just bytes.
"""

import json
import urllib.request

import pytest

from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    ExportServer,
    escape_label_value,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import OBS

from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "golden_metrics.prom"


def _deterministic_registry() -> MetricsRegistry:
    """The fixed registry the golden file renders (no clocks, no RNG)."""
    m = MetricsRegistry()
    m.counter("serving.queries").inc(42)
    m.counter("decentralized.rounds").inc(3)
    m.gauge("manager.last_violation_prob").set(0.125)
    h = m.histogram("inference.query_seconds", buckets=(0.001, 0.01, 0.1, 1.0))
    for v in (0.0005, 0.002, 0.002, 0.05, 0.5, 2.5):
        h.observe(v)
    return m


def parse_prometheus(text: str) -> dict:
    """Minimal exposition parser: ``{name{labels}: float}`` for samples,
    ignoring comment lines.  Enough to read our own scrape back."""
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


# --------------------------------------------------------------------- #
# Name / label escaping
# --------------------------------------------------------------------- #


def test_sanitize_metric_name():
    assert (
        sanitize_metric_name("serving.tier.compiled-einsum")
        == "repro_serving_tier_compiled_einsum"
    )
    assert sanitize_metric_name("9lives") == "repro_9lives"
    assert sanitize_metric_name("x", prefix="") == "x"
    # digits are only escaped at the start of the *bare* name
    assert sanitize_metric_name("0x", prefix="") == "_0x"


def test_escape_label_value_covers_the_three_specials():
    assert escape_label_value('a"b') == 'a\\"b'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("a\nb") == "a\\nb"
    # combined, order-independent round trip of the escapes
    assert escape_label_value('\\"\n') == '\\\\\\"\\n'


def test_const_labels_are_escaped_in_rendered_output():
    m = MetricsRegistry()
    m.counter("c").inc()
    text = render_prometheus(
        m.snapshot(), const_labels={"instance": 'we"ird\\host\n'}
    )
    assert 'instance="we\\"ird\\\\host\\n"' in text


# --------------------------------------------------------------------- #
# Exposition-format conventions
# --------------------------------------------------------------------- #


def test_counter_gets_total_suffix_and_type_line():
    m = MetricsRegistry()
    m.counter("serving.queries").inc(7)
    text = render_prometheus(m.snapshot())
    assert "# TYPE repro_serving_queries_total counter" in text
    assert "repro_serving_queries_total 7" in text


def test_histogram_buckets_are_cumulative_and_inf_terminated():
    m = _deterministic_registry()
    samples = parse_prometheus(render_prometheus(m.snapshot()))
    prefix = "repro_inference_query_seconds"
    buckets = [
        samples[f'{prefix}_bucket{{le="{le}"}}']
        for le in ("0.001", "0.01", "0.1", "1", "+Inf")
    ]
    # 1 obs <= 1ms, 2 more <= 10ms, 1 more <= 100ms, 1 more <= 1s, 1 overflow
    assert buckets == [1.0, 3.0, 4.0, 5.0, 6.0]
    assert buckets == sorted(buckets), "bucket series must be cumulative"
    assert samples[f"{prefix}_count"] == 6.0
    assert samples[f"{prefix}_sum"] == pytest.approx(3.0545)


def test_render_prometheus_matches_golden_file():
    """Bytes-level pin of the full rendering, const labels included."""
    text = render_prometheus(
        _deterministic_registry().snapshot(),
        const_labels={"scenario": "ediamond"},
    )
    assert text == GOLDEN.read_text()


def test_golden_scrape_parses_back_to_the_registry_values():
    samples = parse_prometheus(GOLDEN.read_text())
    assert samples['repro_serving_queries_total{scenario="ediamond"}'] == 42.0
    assert samples['repro_decentralized_rounds_total{scenario="ediamond"}'] == 3.0
    assert samples[
        'repro_manager_last_violation_prob{scenario="ediamond"}'
    ] == 0.125
    inf_key = 'repro_inference_query_seconds_bucket{scenario="ediamond",le="+Inf"}'
    count_key = 'repro_inference_query_seconds_count{scenario="ediamond"}'
    assert samples[inf_key] == samples[count_key] == 6.0


def test_empty_registry_renders_a_comment_only():
    text = render_prometheus(MetricsRegistry().snapshot())
    assert text.startswith("#")
    assert parse_prometheus(text) == {}


# --------------------------------------------------------------------- #
# HTTP endpoint
# --------------------------------------------------------------------- #


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read().decode()


def test_export_server_serves_metrics_health_and_snapshot(obs_active):
    OBS.metrics.counter("serving.queries").inc(5)
    with ExportServer() as srv:
        status, ctype, body = _get(srv.url + "/metrics")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        samples = parse_prometheus(body)
        assert samples["repro_serving_queries_total"] == 5.0

        status, ctype, body = _get(srv.url + "/healthz")
        assert status == 200
        assert ctype == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["obs_enabled"] is True

        status, _, body = _get(srv.url + "/snapshot")
        snap = json.loads(body)
        assert snap["metrics"]["counters"]["serving.queries"] == 5

        with pytest.raises(urllib.error.HTTPError) as err:
            _get(srv.url + "/nope")
        assert err.value.code == 404


def test_scrapes_are_metered(obs_active):
    with ExportServer() as srv:
        _get(srv.url + "/metrics")
        _get(srv.url + "/metrics")
    assert OBS.metrics.counter("obs.export.scrapes").value == 2
    assert OBS.metrics.histogram("obs.export.scrape_seconds").count == 2


def test_server_port_zero_picks_a_free_port_and_stop_is_idempotent():
    srv = ExportServer(port=0)
    with pytest.raises(RuntimeError):
        srv.port  # not started yet
    srv.start()
    assert srv.port > 0
    srv.stop()
    srv.stop()  # second stop is a no-op

