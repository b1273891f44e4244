"""Telemetry egress: Prometheus exposition, HTTP endpoint, JSONL sink.

:mod:`repro.obs` (PR 4) keeps metrics and spans in-process; this module
gets them *out* — the monitoring stream Sec. 3.4's per-service agents
feed the management server, made concrete:

- :func:`render_prometheus` — the text exposition format (version
  0.0.4) rendered from a :meth:`MetricsRegistry.snapshot` dict, the
  body of the HTTP endpoint's ``/metrics``;
- :class:`ExportServer` — a stdlib :mod:`http.server` on a daemon
  thread serving ``/metrics`` (Prometheus text), ``/healthz`` (liveness
  JSON), and ``/snapshot`` (the full metrics + trace JSON a
  ``repro dashboard --url`` pulls);
- :class:`JsonlEventSink` — a rotating JSONL file of structured events
  (finished trace trees, SLO breaches) with deterministic per-category
  sampling so a long-running deployment bounds its disk footprint.

Everything here is read-side: the exporter never mutates instruments,
and a scrape is itself metered (``obs.export.scrapes`` /
``obs.export.scrape_seconds``) so export overhead is visible in the
very stream it exports.
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Mapping, Optional

from repro.obs import runtime
from repro.obs.attribution import BUDGET_GAUGE_FAMILIES
from repro.obs.runtime import OBS

__all__ = [
    "render_prometheus",
    "escape_label_value",
    "ExportServer",
    "JsonlEventSink",
]

#: Prometheus text-exposition content type.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def sanitize_metric_name(name: str, prefix: str = "repro_") -> str:
    """Map a dotted instrument name onto the Prometheus grammar.

    ``serving.tier.compiled-einsum`` → ``repro_serving_tier_compiled_einsum``.
    The mapping is lossy (``.`` and ``-`` both become ``_``); the original
    dotted name is preserved verbatim in the ``# HELP`` line.
    """
    out = prefix + "".join(c if c in _NAME_OK else "_" for c in str(name))
    if out and out[0].isdigit():
        out = "_" + out
    return out


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash,
    double-quote, and newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Render a sample value: integers stay integral, floats use repr
    (shortest round-trippable form)."""
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _labels(const_labels: "Mapping[str, str] | None", extra: str = "") -> str:
    parts = [
        f'{k}="{escape_label_value(v)}"'
        for k, v in sorted((const_labels or {}).items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


#: Dotted-gauge families re-grouped into one labeled series each:
#: ``slo.budget.<family>.<service>`` →
#: ``repro_slo_budget_<family>{service="..."}``.  The registry has no
#: label concept, so the service rides in the dotted name until export.
_BUDGET_GAUGE_PREFIX = "slo.budget."


def _budget_gauge_service(name: str) -> "tuple[str, str] | None":
    """``slo.budget.<family>.<service>`` → ``(family, service)``."""
    if not name.startswith(_BUDGET_GAUGE_PREFIX):
        return None
    family, _, service = name[len(_BUDGET_GAUGE_PREFIX):].partition(".")
    if family in BUDGET_GAUGE_FAMILIES and service:
        return family, service
    return None


def render_prometheus(
    metrics_snapshot: dict,
    const_labels: "Mapping[str, str] | None" = None,
    prefix: str = "repro_",
) -> str:
    """Render a metrics snapshot as Prometheus text exposition.

    Counters gain the conventional ``_total`` suffix; histograms emit
    cumulative ``_bucket{le=...}`` series (terminated by ``le="+Inf"``)
    plus ``_sum`` and ``_count``.  ``const_labels`` are attached to
    every sample — label values are escaped, so instance identifiers
    may contain quotes, backslashes, or newlines.  The per-service
    budget gauges (``slo.budget.<family>.<service>``) are regrouped
    into one series per family with a ``service`` label, the shape a
    Grafana budget panel expects.
    """
    lines: list = []
    for name, value in metrics_snapshot.get("counters", {}).items():
        prom = sanitize_metric_name(name, prefix) + "_total"
        lines.append(f"# HELP {prom} repro counter {_escape_help(name)}")
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom}{_labels(const_labels)} {_fmt(value)}")
    budget_series: "dict[str, list[tuple[str, float]]]" = {}
    for name, value in metrics_snapshot.get("gauges", {}).items():
        grouped = _budget_gauge_service(name)
        if grouped is not None:
            budget_series.setdefault(grouped[0], []).append(
                (grouped[1], value)
            )
            continue
        prom = sanitize_metric_name(name, prefix)
        lines.append(f"# HELP {prom} repro gauge {_escape_help(name)}")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom}{_labels(const_labels)} {_fmt(value)}")
    for family in BUDGET_GAUGE_FAMILIES:
        if family not in budget_series:
            continue
        prom = sanitize_metric_name(_BUDGET_GAUGE_PREFIX + family, prefix)
        lines.append(
            f"# HELP {prom} repro gauge "
            f"{_escape_help(_BUDGET_GAUGE_PREFIX + family)} per service"
        )
        lines.append(f"# TYPE {prom} gauge")
        for service, value in sorted(budget_series[family]):
            labels = _labels(
                const_labels, f'service="{escape_label_value(service)}"'
            )
            lines.append(f"{prom}{labels} {_fmt(value)}")
    for name, summary in metrics_snapshot.get("histograms", {}).items():
        prom = sanitize_metric_name(name, prefix)
        lines.append(f"# HELP {prom} repro histogram {_escape_help(name)}")
        lines.append(f"# TYPE {prom} histogram")
        bounds = summary.get("bucket_bounds") or []
        counts = summary.get("bucket_counts") or []
        cumulative = 0
        for bound, count in zip(bounds, counts):
            cumulative += int(count)
            le = _labels(const_labels, f'le="{_fmt(bound)}"')
            lines.append(f"{prom}_bucket{le} {cumulative}")
        inf = _labels(const_labels, 'le="+Inf"')
        lines.append(f"{prom}_bucket{inf} {int(summary.get('count', 0))}")
        lines.append(
            f"{prom}_sum{_labels(const_labels)} {_fmt(summary.get('sum', 0.0))}"
        )
        lines.append(
            f"{prom}_count{_labels(const_labels)} {int(summary.get('count', 0))}"
        )
    return "\n".join(lines) + "\n" if lines else "# (no metrics recorded)\n"


# --------------------------------------------------------------------- #
# HTTP endpoint
# --------------------------------------------------------------------- #


class ExportServer:
    """``/metrics`` + ``/healthz`` + ``/snapshot`` on a daemon thread.

    Zero dependencies (stdlib ``http.server``), port 0 picks a free
    port.  Usable as a context manager::

        with ExportServer() as srv:
            urllib.request.urlopen(srv.url + "/metrics")
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        const_labels: "Mapping[str, str] | None" = None,
        slo_monitor=None,
    ):
        self.host = host
        self._requested_port = int(port)
        self.const_labels = dict(const_labels or {})
        self.slo_monitor = slo_monitor
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------ #

    def start(self) -> "ExportServer":
        if self._httpd is not None:
            return self
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-export",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ExportServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- addressing ----------------------------------------------------- #

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("export server is not running")
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- payloads (also used directly by tests) ------------------------- #

    def metrics_body(self) -> str:
        t0 = OBS.clock()
        if self.slo_monitor is not None:
            # A scrape sees fresh SLO gauges even between manager cycles.
            self.slo_monitor.publish_gauges()
        body = render_prometheus(OBS.metrics.snapshot(), self.const_labels)
        OBS.metrics.counter("obs.export.scrapes").inc()
        OBS.metrics.histogram("obs.export.scrape_seconds").observe(
            OBS.clock() - t0
        )
        return body

    def health_body(self) -> str:
        payload = {
            "status": "ok",
            "obs_enabled": OBS.enabled,
            "scrapes": OBS.metrics.counter("obs.export.scrapes").value,
        }
        if self.slo_monitor is not None:
            payload["slo"] = self.slo_monitor.status()
        return json.dumps(payload)

    def snapshot_body(self) -> str:
        snap = runtime.snapshot()
        if self.slo_monitor is not None:
            snap["slo"] = self.slo_monitor.status()
        return json.dumps(snap, indent=2, default=str)


def _make_handler(server: ExportServer):
    class Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0]
            try:
                if path == "/metrics":
                    body = server.metrics_body()
                    ctype = PROMETHEUS_CONTENT_TYPE
                elif path == "/healthz":
                    body = server.health_body()
                    ctype = "application/json"
                elif path == "/snapshot":
                    body = server.snapshot_body()
                    ctype = "application/json"
                else:
                    self.send_error(404, "unknown path")
                    return
            except Exception as exc:  # defensive: a scrape must not kill
                self.send_error(500, f"{type(exc).__name__}: {exc}")
                return
            raw = body.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

        def log_message(self, *args: object) -> None:
            pass  # scrapes are metered, not logged

    return Handler


# --------------------------------------------------------------------- #
# JSONL event sink
# --------------------------------------------------------------------- #


class JsonlEventSink:
    """Rotating JSONL file of structured observability events.

    Events are ``{"category", "seq", ...payload}`` objects, one per
    line.  ``sample`` maps a category to *keep one in N* (deterministic
    counter-based sampling — the first of every N is kept, so a short
    run still records its first trace).  Rotation renames ``path`` →
    ``path.1`` → … keeping at most ``max_files`` rotated files.
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = 1_000_000,
        max_files: int = 3,
        sample: "Mapping[str, int] | None" = None,
    ):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        if max_files < 1:
            raise ValueError(f"max_files must be >= 1, got {max_files}")
        self.path = str(path)
        self.max_bytes = int(max_bytes)
        self.max_files = int(max_files)
        self.sample = {str(k): int(v) for k, v in (sample or {}).items()}
        for category, n in self.sample.items():
            if n < 1:
                raise ValueError(
                    f"sample rate for {category!r} must be >= 1, got {n}"
                )
        self._lock = threading.Lock()
        self._seen: Dict[str, int] = {}
        self._emitted = 0
        self._sampled_out = 0
        self._fh = open(self.path, "a", encoding="utf-8")

    # -- write side ----------------------------------------------------- #

    def emit(self, category: str, payload: "Mapping[str, object]") -> bool:
        """Write one event (unless sampled out); returns whether it was
        written.  Never raises on a closed sink — egress is best-effort."""
        category = str(category)
        with self._lock:
            if self._fh.closed:
                return False
            seen = self._seen.get(category, 0)
            self._seen[category] = seen + 1
            rate = self.sample.get(category, 1)
            if seen % rate:
                self._sampled_out += 1
                return False
            event = {"category": category, "seq": seen}
            event.update(payload)
            self._fh.write(json.dumps(event, default=str) + "\n")
            self._fh.flush()
            self._emitted += 1
            if self._fh.tell() >= self.max_bytes:
                self._rotate()
            return True

    def _rotate(self) -> None:
        self._fh.close()
        oldest = f"{self.path}.{self.max_files}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for i in range(self.max_files - 1, 0, -1):
            src = f"{self.path}.{i}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{i + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- read side ------------------------------------------------------ #

    @property
    def stats(self) -> dict:
        with self._lock:
            return {
                "emitted": self._emitted,
                "sampled_out": self._sampled_out,
                "per_category": dict(self._seen),
            }
