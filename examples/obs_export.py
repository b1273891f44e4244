#!/usr/bin/env python
"""Telemetry egress end to end: a live ``/metrics`` scrape and dashboards.

Two observed runs, each scraped over HTTP from an
:class:`~repro.obs.export.ExportServer` bound to 127.0.0.1 on a free
port:

1. the ``repro`` CLI simulates an eDiaMoND window, builds a discrete
   KERT-BN and serves one query; the scrape must count that query, and
   the snapshot renders as a terminal and an HTML dashboard;
2. an autonomic manager with an SLO monitor and per-service budgets
   runs three healthy cycles, then one after X3 is slowed 3x; the
   scraped budget-burn gauges must rank X3 first, and the manager must
   blame and act on X3.

Four artifacts are written: ``metrics-scrape.prom``,
``obs-dashboard.html``, ``budget-scrape.prom`` and
``obs-budget-dashboard.html``.

Run:  python examples/obs_export.py [OUTPUT_DIR]

The artifacts go to OUTPUT_DIR, or to a temporary directory (deleted on
exit) when none is given.  The CLI's intermediate files always go to a
temporary directory.
"""

import contextlib
import os
import sys
import tempfile
import urllib.request

from repro import obs
from repro.cli import main as repro
from repro.core.manager import AutonomicManager, SLAPolicy, inject_degradation
from repro.obs import runtime
from repro.obs.attribution import BudgetTracker
from repro.obs.dashboard import load_snapshot, render_html, render_terminal
from repro.obs.export import ExportServer
from repro.obs.slo import SLOMonitor, manager_objectives
from repro.simulator.scenarios.ediamond import ediamond_scenario

DEGRADED = "X3"  # the service run 2 slows down


def scrape(server: ExportServer) -> str:
    with urllib.request.urlopen(server.url + "/metrics", timeout=10) as r:
        return r.read().decode()


def write(out: str, name: str, text: str) -> None:
    path = os.path.join(out, name)
    with open(path, "w") as f:
        f.write(text)
    print(f"wrote {path}")


def cli_run(out: str) -> None:
    """Simulate, build and serve through the CLI with the exporter live."""
    with tempfile.TemporaryDirectory(prefix="repro-obs-") as work:
        train = os.path.join(work, "train.csv")
        workflow = os.path.join(work, "wf.json")
        model = os.path.join(work, "model.json")
        with ExportServer() as server:
            for argv in (
                ["simulate", "--scenario", "ediamond", "--points", "1200",
                 "--seed", "7", "--out", train, "--workflow-out", workflow],
                ["build", "--family", "kert", "--kind", "discrete",
                 "--workflow", workflow, "--data", train, "--out", model],
                ["serve", "--model", model, "--target", "X4", "--observe", "X1=1"],
            ):
                code = repro(argv)
                assert code == 0, f"repro {argv[0]} exited {code}"
            body = scrape(server)
            assert "repro_serving_queries_total 1" in body, body[:400]
            write(out, "metrics-scrape.prom", body)
            snap = load_snapshot(server.url)
    write(out, "obs-dashboard.html",
          render_html(snap, title="eDiaMoND simulate, build and serve run"))
    print(render_terminal(snap))


def budget_run(out: str) -> None:
    """Budget attribution under an induced single-service degradation."""
    env = ediamond_scenario()
    policy = SLAPolicy(threshold=3.5, max_violation_prob=0.1)
    tracker = BudgetTracker(window=3)
    monitor = SLOMonitor(
        manager_objectives(policy), registry=runtime.OBS.metrics,
        window=3, budget_tracker=tracker,
    )
    manager = AutonomicManager(env, policy, window_points=60, rng=0,
                               slo_monitor=monitor)
    for _ in range(3):
        manager.run_cycle()
    assert tracker.allocation is not None, "no budgets derived"
    inject_degradation(env, DEGRADED, 3.0)
    report = manager.run_cycle()

    with ExportServer(slo_monitor=monitor) as server:
        body = scrape(server)
    write(out, "budget-scrape.prom", body)
    burn = {}
    for line in body.splitlines():
        if line.startswith("repro_slo_budget_burn_rate{"):
            service = line.split('service="', 1)[1].split('"', 1)[0]
            burn[service] = float(line.rsplit(" ", 1)[1])
    assert burn, "no budget gauges scraped"
    top = max(burn, key=burn.get)
    assert top == DEGRADED, f"expected {DEGRADED} first, got {burn}"
    assert burn[DEGRADED] > 1.0, burn
    assert report.attribution[0]["service"] == DEGRADED, report.attribution
    assert report.acted and report.action[0] == DEGRADED, report.action

    snap = runtime.snapshot()
    snap["slo"] = monitor.status()
    write(out, "obs-budget-dashboard.html",
          render_html(snap, title="budget attribution run"))
    print(render_terminal(snap))


def main(argv: "list[str]") -> None:
    with contextlib.ExitStack() as stack:
        if argv:
            out = argv[0]
            os.makedirs(out, exist_ok=True)
        else:
            out = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-obs-"))
        obs.enable()
        cli_run(out)
        obs.reset()  # each run's scrape counts its own work only
        budget_run(out)
    print("\nboth scrapes and dashboards were written and checked")


if __name__ == "__main__":
    main(sys.argv[1:])
