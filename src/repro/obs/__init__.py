"""repro.obs — zero-dependency observability for the modeling stack.

Three pieces, in the spirit of the always-on self-monitoring an
autonomic system assumes (Kephart & Chess's MAPE loops watch
themselves too):

- :mod:`repro.obs.metrics` — process-local counters, gauges, and
  fixed-bucket histograms with p50/p95/p99 summaries and snapshot/reset
  semantics;
- :mod:`repro.obs.tracing` — ``span("name")`` context managers
  producing a parent-linked span tree with wall time and optional
  ``tracemalloc`` peak-memory capture, exported as JSON-ready dicts;
- :mod:`repro.obs.runtime` — the module-level enable flag instrumented
  call sites guard on.  **Off by default**; the disabled cost on a hot
  path is a single attribute read.

Built on those, the egress/consumption layer:

- :mod:`repro.obs.export` — Prometheus text exposition (HTTP
  ``/metrics`` via a stdlib daemon-thread server) and a rotating JSONL
  event sink with per-category sampling;
- :mod:`repro.obs.slo` — windowed p95/p99 + error-rate objectives with
  burn-rate alerting, feeding ``SLOBreach`` events to the autonomic
  manager;
- :mod:`repro.obs.attribution` — per-service SLO budget tracking
  (``BudgetTracker``): burn rates against KERT-BN-derived budgets and
  ranked budget-eater attribution with posterior blame;
- :mod:`repro.obs.dashboard` — terminal + self-contained HTML
  rendering of snapshots (``repro dashboard``).

Instrumentation is wired through the inference engine
(query / batch / plan-cache), the decentralized coordinator (per-agent fit times and
the Sec.-3.4 max-over-agents round span), the model server (per-tier
answer counts, breaker transitions, deadline misses), and the
autonomic manager (phase spans, quarantines, rollbacks).  See
``docs/architecture.md`` ("Observability") for the metric-name catalog.

Quickstart
----------
>>> from repro import obs
>>> obs.enable()
>>> with obs.span("demo"):
...     obs.OBS.metrics.counter("demo.calls").inc()
>>> obs.snapshot()["metrics"]["counters"]["demo.calls"]
1
>>> obs.reset(); obs.disable()
"""

from repro.obs.attribution import (
    BUDGET_GAUGE_FAMILIES,
    BUDGET_STREAM_BUCKETS,
    BudgetTracker,
)
from repro.obs.export import (
    ExportServer,
    JsonlEventSink,
    render_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.runtime import (
    OBS,
    attach_sink,
    detach_sink,
    disable,
    emit_event,
    enable,
    is_enabled,
    iter_spans,
    reset,
    snapshot,
    span,
)
from repro.obs.slo import (
    ErrorRateObjective,
    LatencyObjective,
    SLOBreach,
    SLOMonitor,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "BUDGET_GAUGE_FAMILIES",
    "BUDGET_STREAM_BUCKETS",
    "BudgetTracker",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "ErrorRateObjective",
    "ExportServer",
    "Gauge",
    "Histogram",
    "JsonlEventSink",
    "LatencyObjective",
    "MetricsRegistry",
    "OBS",
    "SLOBreach",
    "SLOMonitor",
    "Span",
    "Tracer",
    "attach_sink",
    "detach_sink",
    "disable",
    "emit_event",
    "enable",
    "is_enabled",
    "iter_spans",
    "render_prometheus",
    "reset",
    "snapshot",
    "span",
]
