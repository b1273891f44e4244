"""Dashboard rendering: terminal summary, HTML report, snapshot sources."""

import json

import pytest

from repro.obs.dashboard import load_snapshot, render_html, render_terminal

SNAP = {
    "enabled": True,
    "metrics": {
        "counters": {"serving.queries": 42, "slo.breaches": 1},
        "gauges": {"manager.last_violation_prob": 0.25},
        "histograms": {
            "inference.query_seconds": {
                "count": 6, "sum": 3.0, "mean": 0.5, "min": 0.001,
                "max": 2.5, "p50": 0.01, "p95": 1.2, "p99": 2.0,
                "overflow": 1,
                "bucket_bounds": [0.01, 1.0], "bucket_counts": [3, 2, 1],
            },
            "empty.hist": {
                "count": 0, "sum": 0.0, "mean": None, "min": None,
                "max": None, "p50": None, "p95": None, "p99": None,
                "overflow": 0, "bucket_bounds": [1.0], "bucket_counts": [0, 0],
            },
        },
    },
    "trace": [
        {
            "name": "manager.cycle",
            "duration_seconds": 0.125,
            "status": "ok",
            "children": [
                {"name": "manager.monitor", "duration_seconds": 0.025,
                 "status": "ok"},
                {"name": "manager.analyze", "duration_seconds": 0.1,
                 "status": "error"},
            ],
        }
    ],
    "slo": {
        "evaluations": 4,
        "window": 5,
        "burn_rate_threshold": 1.0,
        "objectives": [
            {"objective": "response_p95", "kind": "latency", "observed": 2.4,
             "threshold": 2.0, "burn_rate": 1.2, "breached": True,
             "window_intervals": 4},
            {"objective": "violation_rate", "kind": "error_rate",
             "observed": 0.01, "threshold": 0.2, "burn_rate": 0.05,
             "breached": False, "window_intervals": 4},
        ],
        "budgets": {
            "allocations_seen": 2,
            "percentile": 95.0,
            "window": 5,
            "burn_rate_threshold": 1.0,
            "sla": 3.5,
            "target": 0.1,
            "slack": 2.2,
            "feasible": True,
            "expression": "X1 + max(X3, X6)",
            "services": [
                {"service": "X3", "allocated": 0.9, "consumed": 1.4,
                 "burn_rate": 1.56, "blame": 0.94, "breached": True,
                 "points": 60, "history": [0.5, 0.7, 1.56]},
                {"service": "X6", "allocated": 1.1, "consumed": 0.8,
                 "burn_rate": 0.73, "blame": 0.2, "breached": False,
                 "points": 60, "history": [0.7, 0.73]},
            ],
        },
    },
}


def test_terminal_summary_covers_every_section():
    text = render_terminal(SNAP)
    assert "obs enabled: True" in text
    assert "serving.queries" in text and "42" in text
    assert "manager.last_violation_prob" in text
    assert "inference.query_seconds" in text and "p95=1.2" in text
    assert "empty.hist  count=0" in text
    # SLO block states breach vs ok per objective
    assert "response_p95" in text and "BREACHED" in text
    assert "violation_rate" in text
    # span tree with nesting and error marker
    assert "manager.cycle" in text
    assert "manager.analyze" in text and "[!error]" in text


def test_terminal_span_marks_status_and_error(obs_active):
    """Beyond its time, a span line shows a non-fresh ``status`` extra
    and the error text of a failed span."""
    with obs_active.span("decentralized.round"):
        tracer = obs_active.OBS.tracer
        tracer.record_span("agent:X1", 0.001).annotate(status="fresh")
        tracer.record_span("agent:X2", 0.002).annotate(status="stale")
    with pytest.raises(RuntimeError):
        with obs_active.span("failing"):
            raise RuntimeError("boom")
    lines = render_terminal(obs_active.snapshot()).splitlines()
    (x2,) = [line for line in lines if "agent:X2" in line]
    assert x2.endswith("[stale]")
    (x1,) = [line for line in lines if "agent:X1" in line]
    assert x1.endswith("ms")
    (failing,) = [line for line in lines if "failing" in line]
    assert failing.endswith("[!error: RuntimeError: boom]")


def test_terminal_summary_of_an_empty_snapshot():
    text = render_terminal({"enabled": False, "metrics": {}, "trace": []})
    assert "(no spans recorded)" in text


def test_html_report_is_self_contained_and_escaped():
    evil = {
        "enabled": True,
        "metrics": {"counters": {"<script>alert(1)</script>": 1},
                    "gauges": {}, "histograms": {}},
        "trace": [],
    }
    html = render_html(evil, title="<b>title</b>")
    assert html.startswith("<!doctype html>")
    assert "<script>alert(1)</script>" not in html
    assert "&lt;script&gt;" in html
    assert "<b>title</b>" not in html
    # single file, no external fetches
    assert "http" not in html.split("</style>")[1]
    assert "<link" not in html and "src=" not in html


def test_html_report_renders_the_full_snapshot():
    html = render_html(SNAP)
    assert "repro observability report" in html
    assert "serving.queries" in html
    assert "response_p95" in html and "BREACHED" in html
    assert "inference.query_seconds" in html
    assert "manager.cycle" in html
    # the p95 bar scales against the largest histogram p95
    assert 'class=bar style="width:120px"' in html


def test_load_snapshot_from_file_and_live_state(tmp_path, obs_active):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(SNAP))
    assert load_snapshot(str(path)) == SNAP

    from repro.obs.runtime import OBS

    OBS.metrics.counter("live.counter").inc(7)
    live = load_snapshot(None)
    assert live["metrics"]["counters"]["live.counter"] == 7


def test_load_snapshot_from_export_url(obs_active):
    from repro.obs.export import ExportServer
    from repro.obs.runtime import OBS

    OBS.metrics.counter("served.counter").inc(3)
    with ExportServer() as srv:
        # both the bare endpoint and the explicit /snapshot path work
        snap = load_snapshot(srv.url)
        snap2 = load_snapshot(srv.url + "/snapshot")
    assert snap["metrics"]["counters"]["served.counter"] == 3
    assert snap2["metrics"]["counters"]["served.counter"] == 3


def test_terminal_renders_budget_attribution_table():
    text = render_terminal(SNAP)
    assert "per-service budgets (sla=3.5 target=0.1 slack=2.2)" in text
    x3 = next(ln for ln in text.splitlines() if ln.lstrip().startswith("X3"))
    assert "OVER" in x3 and "burn=1.56" in x3 and "blame=0.94" in x3
    # burn history renders as a sparkline, highest sample tallest
    assert x3.rstrip().endswith("▃▄█")
    x6 = next(ln for ln in text.splitlines() if ln.lstrip().startswith("X6"))
    assert "ok" in x6 and "OVER" not in x6


def test_terminal_flags_infeasible_allocations():
    snap = json.loads(json.dumps(SNAP))
    snap["slo"]["budgets"]["feasible"] = False
    assert "INFEASIBLE" in render_terminal(snap)


def test_html_renders_budget_attribution_table():
    html = render_html(SNAP)
    assert "Per-service budgets" in html
    assert "<td>X3</td>" in html and "OVER" in html
    assert '<td class=spark>▃▄█</td>' in html
    assert "td.spark" in html  # sparkline styling ships with the page


# --------------------------------------------------------------------- #
# load_snapshot error reporting
# --------------------------------------------------------------------- #


def test_load_snapshot_unreachable_url_is_a_one_liner():
    from repro.exceptions import ReproError

    # Port 9 (discard) is firewalled/closed on any sane CI host.
    with pytest.raises(ReproError, match="cannot reach exporter at"):
        load_snapshot("http://127.0.0.1:9/snapshot")


def test_load_snapshot_non_json_body_names_the_culprit():
    import http.server
    import threading

    from repro.exceptions import ReproError

    class _HtmlHandler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (stdlib handler naming)
            body = b"<html>not metrics</html>"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    srv = http.server.HTTPServer(("127.0.0.1", 0), _HtmlHandler)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{srv.server_address[1]}/snapshot"
        with pytest.raises(ReproError, match="non-JSON body") as err:
            load_snapshot(url)
        assert "<html>" in str(err.value)
    finally:
        srv.shutdown()
        thread.join()


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #


def test_cli_dashboard_renders_snapshot_file(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "snap.json"
    path.write_text(json.dumps(SNAP))
    assert main(["dashboard", "--snapshot", str(path)]) == 0
    out = capsys.readouterr().out
    assert "repro observability dashboard" in out
    assert "serving.queries" in out


def test_cli_dashboard_writes_html(tmp_path, capsys):
    from repro.cli import main

    snap_path = tmp_path / "snap.json"
    snap_path.write_text(json.dumps(SNAP))
    html_path = tmp_path / "report.html"
    code = main(
        ["dashboard", "--snapshot", str(snap_path), "--html", str(html_path)]
    )
    assert code == 0
    html = html_path.read_text()
    assert html.startswith("<!doctype html>")
    assert "response_p95" in html
    # without --print the terminal summary stays off stdout
    assert "repro observability dashboard" not in capsys.readouterr().out
