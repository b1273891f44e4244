"""Snapshot rendering: terminal summary + self-contained HTML report.

The consumption end of the telemetry pipe.  A *snapshot* here is the
JSON produced by :func:`repro.obs.runtime.snapshot` (optionally with the
``slo`` status block the :class:`~repro.obs.export.ExportServer`'s
``/snapshot`` endpoint adds) — the dashboard renders it, it never
computes new statistics.  Sources: a snapshot file from
``--trace-out`` or a running export endpoint's ``/snapshot`` URL (the
two ``repro dashboard`` accepts), or the live in-process state for
in-process callers.

The HTML report is a single file with inline CSS and zero external
assets, so it can be attached to a CI run or mailed around as-is.
"""

from __future__ import annotations

import html
import json
from typing import List
from urllib.error import URLError
from urllib.request import urlopen

from repro.exceptions import ReproError
from repro.obs import runtime

__all__ = ["load_snapshot", "render_terminal", "render_html"]


def load_snapshot(source: "str | None" = None, timeout: float = 5.0) -> dict:
    """Resolve a snapshot dict from a file path, a ``/snapshot`` URL, or
    (``None``) the live in-process observability state.

    Exporter trouble surfaces as a one-line :class:`ReproError` (the CLI
    prints it and exits 1) rather than a urllib/json traceback.
    """
    if source is None:
        return runtime.snapshot()
    if source.startswith(("http://", "https://")):
        url = source.rstrip("/")
        if not url.endswith("/snapshot"):
            url += "/snapshot"
        try:
            with urlopen(url, timeout=timeout) as resp:  # noqa: S310 - operator URL
                body = resp.read().decode("utf-8", errors="replace")
        except (URLError, OSError) as exc:
            reason = getattr(exc, "reason", None) or exc
            raise ReproError(
                f"cannot reach exporter at {url}: {reason}"
            ) from exc
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            head = body.strip().splitlines()[0][:80] if body.strip() else ""
            raise ReproError(
                f"exporter at {url} returned a non-JSON body"
                + (f" (starts with {head!r})" if head else " (empty)")
            ) from exc
    with open(source, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------- #
# Terminal rendering
# --------------------------------------------------------------------- #


def _fmt_num(value: "float | None", unit: str = "") -> str:
    if value is None:
        return "-"
    return f"{value:.6g}{unit}"


_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def _sparkline(history: "list | tuple") -> str:
    """Unicode burn-rate sparkline, scaled so the burn=1.0 budget line
    stays comparable across services (taller history wins the scale)."""
    values = [max(float(v), 0.0) for v in history]
    if not values:
        return ""
    top = max(max(values), 1.0)
    return "".join(
        _SPARK_GLYPHS[min(int(v / top * len(_SPARK_GLYPHS)), 7)]
        for v in values
    )


def _budget_head(budgets: dict) -> str:
    head = (
        f"sla={_fmt_num(budgets.get('sla'))} "
        f"target={_fmt_num(budgets.get('target'))} "
        f"slack={_fmt_num(budgets.get('slack'))}"
    )
    if not budgets.get("feasible", True):
        head += " INFEASIBLE"
    return head


def _span_lines(spans: list, lines: List[str], lead: str = "") -> None:
    for i, sp in enumerate(spans):
        last = i == len(spans) - 1
        branch = ("`- " if last else "|- ") if lead or len(spans) > 1 else ""
        label = lead + branch + str(sp.get("name", "?"))
        ms = float(sp.get("duration_seconds", 0.0)) * 1e3
        mark = ""
        status = sp.get("status", "ok")
        extra = sp.get("extra") or {}
        if status != "ok":
            error = sp.get("error")
            mark = f"  [!{status}: {error}]" if error else f"  [!{status}]"
        elif extra.get("status", "fresh") != "fresh":
            mark = f"  [{extra['status']}]"
        lines.append(f"{label:<48} {ms:10.3f}ms{mark}")
        _span_lines(
            sp.get("children") or [], lines, lead + ("   " if last else "|  ")
        )


def render_terminal(snap: dict, max_rows: int = 25) -> str:
    """A fixed-width operator summary of one snapshot."""
    metrics = snap.get("metrics", {})
    lines: List[str] = []
    lines.append("== repro observability dashboard ==")
    lines.append(f"obs enabled: {snap.get('enabled', '?')}")
    slo = snap.get("slo")
    if slo:
        lines.append("")
        lines.append(
            f"-- SLO status (window={slo.get('window')}, "
            f"{slo.get('evaluations', 0)} evaluation(s)) --"
        )
        for obj in slo.get("objectives", ()):
            state = "BREACHED" if obj.get("breached") else "ok"
            lines.append(
                f"  {obj.get('objective', '?'):<20} {state:<9} "
                f"observed={_fmt_num(obj.get('observed'))} "
                f"threshold={_fmt_num(obj.get('threshold'))} "
                f"burn_rate={_fmt_num(obj.get('burn_rate'))}"
            )
        budgets = slo.get("budgets")
        if budgets:
            lines.append("")
            lines.append(
                f"-- per-service budgets ({_budget_head(budgets)}) --"
            )
            for row in budgets.get("services", ()):
                state = "OVER" if row.get("breached") else "ok"
                lines.append(
                    f"  {row.get('service', '?'):<8} {state:<5} "
                    f"allocated={_fmt_num(row.get('allocated'))} "
                    f"consumed={_fmt_num(row.get('consumed'))} "
                    f"burn={_fmt_num(row.get('burn_rate'))} "
                    f"blame={_fmt_num(row.get('blame'))} "
                    f"{_sparkline(row.get('history') or [])}"
                )
    counters = metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append(f"-- counters ({len(counters)}) --")
        width = max(len(n) for n in counters)
        shown = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, value in shown[:max_rows]:
            lines.append(f"  {name:<{width}}  {value}")
        if len(shown) > max_rows:
            lines.append(f"  ... {len(shown) - max_rows} more")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append(f"-- gauges ({len(gauges)}) --")
        width = max(len(n) for n in gauges)
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<{width}}  {_fmt_num(value)}")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append(f"-- histograms ({len(histograms)}) --")
        for name, s in sorted(histograms.items()):
            if not s.get("count"):
                lines.append(f"  {name}  count=0")
                continue
            lines.append(
                f"  {name}  count={s['count']} mean={_fmt_num(s.get('mean'))} "
                f"p50={_fmt_num(s.get('p50'))} p95={_fmt_num(s.get('p95'))} "
                f"p99={_fmt_num(s.get('p99'))} max={_fmt_num(s.get('max'))}"
            )
    trace = snap.get("trace") or []
    lines.append("")
    lines.append(f"-- trace ({len(trace)} root span(s)) --")
    if trace:
        _span_lines(trace, lines)
    else:
        lines.append("  (no spans recorded)")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# HTML rendering
# --------------------------------------------------------------------- #

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { text-align: left; padding: 0.3rem 0.6rem;
         border-bottom: 1px solid #e2e2ef; }
th { background: #f4f4fb; } td.num { text-align: right;
     font-variant-numeric: tabular-nums; }
.ok { color: #1b7f4d; font-weight: 600; }
.breach { color: #b3261e; font-weight: 600; }
.badge { display: inline-block; padding: 0.1rem 0.5rem;
         border-radius: 0.6rem; background: #eef; font-size: 0.8rem; }
pre.trace { background: #f8f8fc; padding: 1rem; overflow-x: auto;
            font-size: 0.8rem; line-height: 1.35; }
.bar { background: #dcdcf5; height: 0.6rem; display: inline-block; }
td.spark { font-family: monospace; letter-spacing: 0.05em; }
"""


def _h(value: object) -> str:
    return html.escape(str(value))


def _hist_rows(histograms: dict) -> str:
    rows = []
    max_p95 = max(
        (s.get("p95") or 0.0 for s in histograms.values() if s.get("count")),
        default=0.0,
    )
    for name, s in sorted(histograms.items()):
        if not s.get("count"):
            continue
        p95 = s.get("p95") or 0.0
        bar = int(round(120 * p95 / max_p95)) if max_p95 else 0
        rows.append(
            "<tr><td>{}</td><td class=num>{}</td><td class=num>{}</td>"
            "<td class=num>{}</td><td class=num>{}</td><td class=num>{}</td>"
            '<td><span class=bar style="width:{}px"></span></td></tr>'.format(
                _h(name),
                s.get("count"),
                _fmt_num(s.get("mean")),
                _fmt_num(s.get("p50")),
                _fmt_num(s.get("p95")),
                _fmt_num(s.get("p99")),
                bar,
            )
        )
    return "\n".join(rows)


def render_html(snap: dict, title: str = "repro observability report") -> str:
    """One self-contained HTML page (inline CSS, no external assets)."""
    metrics = snap.get("metrics", {})
    parts: List[str] = [
        "<!doctype html>",
        '<html><head><meta charset="utf-8">',
        f"<title>{_h(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_h(title)}</h1>",
        f'<p><span class=badge>obs enabled: {_h(snap.get("enabled", "?"))}'
        "</span></p>",
    ]
    slo = snap.get("slo")
    if slo:
        parts.append("<h2>SLO status</h2><table>")
        parts.append(
            "<tr><th>objective</th><th>state</th><th>observed</th>"
            "<th>threshold</th><th>burn rate</th><th>window</th></tr>"
        )
        for obj in slo.get("objectives", ()):
            breached = bool(obj.get("breached"))
            parts.append(
                "<tr><td>{}</td><td class={}>{}</td><td class=num>{}</td>"
                "<td class=num>{}</td><td class=num>{}</td>"
                "<td class=num>{}</td></tr>".format(
                    _h(obj.get("objective", "?")),
                    "breach" if breached else "ok",
                    "BREACHED" if breached else "ok",
                    _fmt_num(obj.get("observed")),
                    _fmt_num(obj.get("threshold")),
                    _fmt_num(obj.get("burn_rate")),
                    _h(obj.get("window_intervals", "-")),
                )
            )
        parts.append("</table>")
        budgets = slo.get("budgets")
        if budgets:
            parts.append(
                f"<h2>Per-service budgets ({_h(_budget_head(budgets))})"
                "</h2><table>"
            )
            parts.append(
                "<tr><th>service</th><th>state</th><th>allocated</th>"
                "<th>consumed</th><th>burn rate</th><th>blame</th>"
                "<th>burn history</th></tr>"
            )
            for row in budgets.get("services", ()):
                breached = bool(row.get("breached"))
                parts.append(
                    "<tr><td>{}</td><td class={}>{}</td>"
                    "<td class=num>{}</td><td class=num>{}</td>"
                    "<td class=num>{}</td><td class=num>{}</td>"
                    "<td class=spark>{}</td></tr>".format(
                        _h(row.get("service", "?")),
                        "breach" if breached else "ok",
                        "OVER" if breached else "ok",
                        _fmt_num(row.get("allocated")),
                        _fmt_num(row.get("consumed")),
                        _fmt_num(row.get("burn_rate")),
                        _fmt_num(row.get("blame")),
                        _h(_sparkline(row.get("history") or [])),
                    )
                )
            parts.append("</table>")
    counters = metrics.get("counters", {})
    if counters:
        parts.append(f"<h2>Counters ({len(counters)})</h2><table>")
        parts.append("<tr><th>name</th><th>value</th></tr>")
        for name, value in sorted(
            counters.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            parts.append(
                f"<tr><td>{_h(name)}</td><td class=num>{_h(value)}</td></tr>"
            )
        parts.append("</table>")
    gauges = metrics.get("gauges", {})
    if gauges:
        parts.append(f"<h2>Gauges ({len(gauges)})</h2><table>")
        parts.append("<tr><th>name</th><th>value</th></tr>")
        for name, value in sorted(gauges.items()):
            parts.append(
                f"<tr><td>{_h(name)}</td>"
                f"<td class=num>{_fmt_num(value)}</td></tr>"
            )
        parts.append("</table>")
    histograms = metrics.get("histograms", {})
    if histograms:
        parts.append(f"<h2>Histograms ({len(histograms)})</h2><table>")
        parts.append(
            "<tr><th>name</th><th>count</th><th>mean</th><th>p50</th>"
            "<th>p95</th><th>p99</th><th>p95 (relative)</th></tr>"
        )
        parts.append(_hist_rows(histograms))
        parts.append("</table>")
    trace = snap.get("trace") or []
    parts.append(f"<h2>Trace ({len(trace)} root span(s))</h2>")
    if trace:
        span_lines: List[str] = []
        _span_lines(trace, span_lines)
        parts.append(f'<pre class=trace>{_h(chr(10).join(span_lines))}</pre>')
    else:
        parts.append("<p>(no spans recorded)</p>")
    parts.append("</body></html>")
    return "\n".join(parts)
