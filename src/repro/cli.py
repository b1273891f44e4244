"""Command-line toolchain.

The paper promises "an implementation … deliver[ed] to operate under a
flexible model (re)construction scheme [that] can be integrated into
autonomic solutions with minimal effort".  The CLI is that integration
surface: workflows come in as JSON, monitoring windows as CSV, models go
out as JSON bundles, and assessments print machine-parseable lines.

Subcommands
-----------
- ``inspect-workflow`` — derive and print ``f`` and the KERT-BN structure.
- ``simulate``         — generate a monitored dataset from a scenario.
- ``build``            — build a KERT-BN or NRT-BN from workflow + data.
- ``score``            — test log10-likelihood of a saved model.
- ``assess``           — response-time assessment / violation probability.
- ``localize``         — rank services by blame for an observed slowdown.
- ``dcomp``            — posterior of an unobservable service.
- ``slo budgets``      — per-service response-time budgets from a model.
- ``registry``         — versioned model store: list/publish/activate/rollback.
- ``serve``            — guarded one-shot query through the fallback chain.
- ``dashboard``        — render a snapshot (a ``--trace-out`` file, a
  running endpoint's ``/snapshot`` URL, or this process's live state)
  as a terminal summary and/or a self-contained HTML report.

Every subcommand also accepts a global ``--trace-out PATH``: it enables
:mod:`repro.obs` for the run, wraps the command in a ``cli.<command>``
span, and writes the full observability snapshot (metrics + span tree)
as JSON to ``PATH`` on exit.

Example
-------
::

    repro simulate --scenario ediamond --points 600 --seed 7 \
        --out train.csv --workflow-out wf.json
    repro build --family kert --kind continuous \
        --workflow wf.json --data train.csv --out model.json
    repro assess --model model.json --threshold 2.0

``examples/cli_pipeline.py`` runs every subcommand in order and checks
each one's output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from repro.exceptions import ReproError


def _parse_assignments(pairs: "Sequence[str] | None") -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"expected NAME=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        try:
            number = float(value)
        except ValueError:
            raise SystemExit(f"value for {name!r} is not a number: {value!r}")
        if not math.isfinite(number):
            raise SystemExit(f"value for {name.strip()!r} is not finite")
        out[name.strip()] = number
    return out


# --------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------- #


def cmd_inspect_workflow(args: argparse.Namespace) -> int:
    from repro.workflow.parser import workflow_from_json
    from repro.workflow.response_time import response_time_function
    from repro.workflow.structure import kert_bn_structure, workflow_edges

    from repro.workflow.visualize import render_structure_summary, render_workflow

    with open(args.workflow) as fh:
        wf = workflow_from_json(fh.read())
    f = response_time_function(wf)
    dag = kert_bn_structure(wf, response=args.response)
    print(f"services ({wf.n_services()}): {', '.join(wf.services())}")
    print(f"f: {args.response} = {f.to_string()}")
    print(render_workflow(wf))
    print("workflow edges:")
    for u, v in workflow_edges(wf):
        print(f"  {u} -> {v}")
    print(f"KERT-BN structure: {render_structure_summary(dag, args.response)}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.bn.csvio import dataset_to_csv
    from repro.simulator.scenarios.ediamond import ediamond_scenario
    from repro.simulator.scenarios.random_env import random_environment
    from repro.simulator.traces import inject_missing
    from repro.workflow.parser import workflow_to_json

    if args.scenario == "ediamond":
        env = ediamond_scenario()
    else:
        env = random_environment(args.n_services, rng=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    data = env.simulate(args.points, rng=rng)
    if args.reporting_loss is not None:
        data = inject_missing(
            data, env.service_names, fraction=args.reporting_loss, rng=rng
        )
    dataset_to_csv(data, args.out)
    print(f"wrote {data.n_rows} points x {len(data.columns)} columns to {args.out}")
    if args.workflow_out:
        with open(args.workflow_out, "w") as fh:
            fh.write(workflow_to_json(env.workflow, indent=2))
        print(f"wrote workflow to {args.workflow_out}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    from repro.bn.csvio import dataset_from_csv
    from repro.core.kertbn import build_continuous_kertbn, build_discrete_kertbn
    from repro.core.nrtbn import build_continuous_nrtbn, build_discrete_nrtbn
    from repro.core.persistence import save_model
    from repro.workflow.parser import workflow_from_json

    if args.family == "kert" and not args.workflow:
        raise SystemExit("--workflow is required for --family kert")
    data = dataset_from_csv(args.data)
    if args.family == "kert":
        with open(args.workflow) as fh:
            wf = workflow_from_json(fh.read())
        if args.kind == "continuous":
            model = build_continuous_kertbn(wf, data, response=args.response)
        else:
            model = build_discrete_kertbn(
                wf, data, response=args.response, n_bins=args.bins
            )
    else:
        if args.kind == "continuous":
            model = build_continuous_nrtbn(
                data, response=args.response, rng=args.seed,
                n_restarts=args.restarts,
            )
        else:
            model = build_discrete_nrtbn(
                data, response=args.response, rng=args.seed,
                n_bins=args.bins, n_restarts=args.restarts,
            )
    save_model(model, args.out)
    rep = model.report
    print(f"model: {rep.model_kind}")
    print(f"nodes={rep.n_nodes} edges={rep.n_edges} parameters={rep.n_parameters}")
    print(f"construction_seconds={rep.construction_seconds:.6f} "
          f"(structure={rep.structure_seconds:.6f}, "
          f"parameters={rep.parameter_seconds:.6f})")
    print(f"saved to {args.out}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    from repro.bn.csvio import dataset_from_csv
    from repro.core.persistence import load_model

    model = load_model(args.model)
    data = dataset_from_csv(args.data)
    print(f"log10_likelihood={model.log10_likelihood(data):.4f} "
          f"n_rows={data.n_rows}")
    return 0


def cmd_assess(args: argparse.Namespace) -> int:
    from repro.apps.paccel import PAccel
    from repro.core.persistence import load_model

    evidence = _parse_assignments(args.set)
    model = load_model(args.model)
    pa = PAccel(model)
    result = pa.project(evidence, rng=args.seed) if evidence else pa.baseline(
        rng=args.seed
    )
    print(f"E[D]={result.mean:.4f} sd={result.std:.4f}")
    for h in args.threshold or ():
        print(f"P(D>{h:g})={result.violation_probability(h):.4f}")
    return 0


def cmd_dcomp(args: argparse.Namespace) -> int:
    from repro.apps.dcomp import DComp
    from repro.core.persistence import load_model

    model = load_model(args.model)
    observed = _parse_assignments(args.observe)
    if not observed:
        raise SystemExit("dcomp needs at least one --observe NAME=VALUE")
    result = DComp(model).posterior(args.target, observed, rng=args.seed)
    print(f"prior:     mean={result.prior_mean:.4f} sd={result.prior_std:.4f}")
    print(f"posterior: mean={result.posterior_mean:.4f} sd={result.posterior_std:.4f}")
    return 0


def cmd_localize(args: argparse.Namespace) -> int:
    from repro.apps.localization import ProblemLocalizer
    from repro.core.persistence import load_model

    observed = _parse_assignments(args.observe)
    if not observed:
        raise SystemExit("localize needs at least one --observe NAME=VALUE")
    model = load_model(args.model)
    suspects = ProblemLocalizer(model).localize(observed, top=args.top)
    print(f"{'rank':>4s} {'service':>10s} {'z':>7s} {'D_shift':>9s} {'blame':>9s}")
    for rank, s in enumerate(suspects, start=1):
        print(
            f"{rank:4d} {s.service:>10s} {s.z_score:7.2f} "
            f"{s.projected_d_shift:9.3f} {s.blame:9.4f}"
        )
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    # action == "budgets": invert a saved model into per-service budgets.
    import json as _json

    from repro.bn.budgets import derive_budgets, discrete_blame
    from repro.core.persistence import load_model

    model = load_model(args.model)
    alloc = derive_budgets(model, sla=args.sla, target=args.target)
    if args.no_blame:
        blame: dict = {}
    elif model.kind == "kert-bn/continuous":
        blame = model.assessor.blame(alloc.as_mapping(), args.sla)
    else:
        # Discrete model: blame from the compiled engine's joints.
        blame = discrete_blame(
            model.network.compiled(),
            model.discretizer,
            model.response,
            alloc.as_mapping(),
            args.sla,
        )
    print(
        f"objective: P(D > {args.sla:g}) <= {args.target:g}   "
        f"slack={alloc.slack:.3f} composed={alloc.composed:.4f} "
        f"tail_total={alloc.tail_total:.4f} "
        f"{'feasible' if alloc.feasible else 'INFEASIBLE'}"
    )
    print(f"composition: {alloc.expression}")
    print(f"{'service':>10s} {'budget':>9s} {'mean':>8s} {'std':>8s} "
          f"{'tail':>8s} {'blame':>8s}")
    for sb in alloc.budgets:
        print(
            f"{sb.service:>10s} {sb.budget:9.4f} {sb.mean:8.4f} "
            f"{sb.std:8.4f} {sb.tail_mass:8.5f} "
            f"{blame.get(sb.service, 0.0):8.4f}"
        )
    if args.json:
        payload = alloc.to_dict()
        payload["blame"] = blame
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote budget allocation to {args.json}")
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import load_snapshot, render_html, render_terminal

    snap = load_snapshot(args.url or args.snapshot)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(snap, title=args.title) + "\n")
        print(f"wrote HTML report to {args.html}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_terminal(snap) + "\n")
        print(f"wrote dashboard summary to {args.out}")
    elif not args.html or args.print:
        print(render_terminal(snap))
    return 0


def cmd_registry(args: argparse.Namespace) -> int:
    from repro.core.persistence import load_model
    from repro.serving.registry import ModelRegistry

    reg = ModelRegistry(args.root, keep=args.keep)
    if args.action == "list":
        if not reg.versions():
            print("registry is empty")
            return 0
        for info in reg.versions():
            marker = "*" if info.version == reg.active_version else " "
            health = "healthy" if info.healthy else f"UNHEALTHY ({info.reason})"
            print(
                f"{marker} v{info.version:<6d} {info.model_kind:<22s} {health}"
            )
        return 0
    if args.action == "publish":
        if not args.model:
            raise SystemExit("registry publish needs --model BUNDLE.json")
        version = reg.publish(load_model(args.model), activate=not args.no_activate)
        print(f"published v{version}"
              + ("" if args.no_activate else " (active)"))
        return 0
    if args.action == "activate":
        if args.version is None:
            raise SystemExit("registry activate needs --version N")
        reg.activate(args.version)
        print(f"active: v{reg.active_version}")
        return 0
    # rollback
    target = reg.rollback(reason=args.reason)
    print(f"rolled back; active: v{target}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.persistence import load_model
    from repro.serving.registry import ModelRegistry
    from repro.serving.server import ModelServer

    if bool(args.model) == bool(args.registry):
        raise SystemExit("serve needs exactly one of --model / --registry")
    source = (
        load_model(args.model) if args.model else ModelRegistry(args.registry)
    )
    server = ModelServer(source, deadline_seconds=args.deadline, rng=args.seed)
    evidence = _parse_assignments(args.observe)
    if args.threshold is not None:
        result = server.violation_prob(args.threshold, evidence or None)
        label = f"P(D>{args.threshold:g})"
    else:
        result = server.query([args.target or server.model.response], evidence)
        label = f"P({args.target or server.model.response})"
    if server.version is not None:
        print(f"serving: v{server.version}")
    print(f"status: {result.status}")
    if result.status == "rejected":
        for reason in result.reasons:
            print(f"  reason: {reason}")
        return 1
    if result.status != "ok":
        for tier, err in result.tier_errors.items():
            print(f"  {tier}: {err}")
        return 1
    print(f"tier: {result.tier}" + (" (approximate)" if result.approximate else ""))
    for tier, err in result.tier_errors.items():
        print(f"  degraded past {tier}: {err}")
    if np.ndim(result.value) == 0:
        print(f"{label}={float(result.value):.4f}")
    else:
        pmf = np.asarray(result.value, dtype=float).ravel()
        print(f"{label}=[{', '.join(f'{p:.4f}' for p in pmf)}]")
    return 0


# --------------------------------------------------------------------- #
# Parser wiring
# --------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KERT-BN performance-modeling toolchain (IPDPS 2007 reproduction)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="enable observability for this run and write the snapshot "
        "(metrics + span tree) as JSON to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect-workflow", help="derive f and structure")
    p.add_argument("workflow", help="workflow JSON file")
    p.add_argument("--response", default="D")
    p.set_defaults(fn=cmd_inspect_workflow)

    p = sub.add_parser("simulate", help="generate a monitored dataset")
    p.add_argument("--scenario", choices=("ediamond", "random"), default="ediamond")
    p.add_argument("--n-services", type=int, default=30)
    p.add_argument("--points", type=int, default=600)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--workflow-out", help="also write the workflow JSON here")
    p.add_argument("--reporting-loss", type=float, default=None,
                   help="mask each service measurement with this "
                        "probability in (0, 1] (Sec. 5.1 reporting "
                        "failures; D is never masked)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("build", help="build a model from workflow + data")
    p.add_argument("--family", choices=("kert", "nrt"), required=True)
    p.add_argument("--kind", choices=("continuous", "discrete"), default="continuous")
    p.add_argument("--workflow", help="workflow JSON (required for kert)")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--response", default="D")
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=None,
                   help="K2 random restarts (nrt only)")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("score", help="log10-likelihood of a model on data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("assess", help="response-time assessment (pAccel)")
    p.add_argument("--model", required=True)
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="predicted service mean(s)")
    p.add_argument("--threshold", action="append", type=float,
                   help="print P(D > threshold); repeatable")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_assess)

    p = sub.add_parser("localize", help="rank services by blame for a slowdown")
    p.add_argument("--model", required=True,
                   help="a continuous KERT-BN bundle (the healthy reference)")
    p.add_argument("--observe", action="append", metavar="NAME=VALUE",
                   help="current mean elapsed time per observable service")
    p.add_argument("--top", type=int, default=None)
    p.set_defaults(fn=cmd_localize)

    p = sub.add_parser("dcomp", help="posterior of an unobservable service")
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--observe", action="append", metavar="NAME=VALUE")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_dcomp)

    p = sub.add_parser("registry", help="versioned model registry")
    p.add_argument("action", choices=("list", "publish", "activate", "rollback"))
    p.add_argument("--root", required=True, help="registry directory")
    p.add_argument("--model", help="bundle to publish")
    p.add_argument("--version", type=int, help="version to activate")
    p.add_argument("--keep", type=int, default=5, help="retention (last N)")
    p.add_argument("--no-activate", action="store_true",
                   help="publish without activating")
    p.add_argument("--reason", default="operator rollback",
                   help="reason recorded on rollback")
    p.set_defaults(fn=cmd_registry)

    p = sub.add_parser(
        "slo",
        help="SLO tooling: derive per-service budgets from a model",
    )
    p.add_argument("action", choices=("budgets",))
    p.add_argument("--model", required=True,
                   help="saved model bundle (from `repro build`)")
    p.add_argument("--sla", type=float, required=True,
                   help="end-to-end response-time bound (seconds)")
    p.add_argument("--target", type=float, required=True,
                   help="tolerated P(D > sla), in (0, 1)")
    p.add_argument("--no-blame", action="store_true",
                   help="skip the posterior blame column (faster)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the allocation (+ blame) as JSON")
    p.set_defaults(fn=cmd_slo)

    p = sub.add_parser(
        "dashboard",
        help="render an observability snapshot as a terminal summary "
        "and/or self-contained HTML report",
    )
    p.add_argument("--snapshot", metavar="PATH",
                   help="snapshot JSON file (e.g. from --trace-out); "
                   "default: this process's live state")
    p.add_argument("--url", metavar="URL",
                   help="scrape a running export endpoint's /snapshot "
                   "instead of reading a file")
    p.add_argument("--html", metavar="PATH",
                   help="write a self-contained HTML report here")
    p.add_argument("--out", metavar="PATH",
                   help="write the terminal summary here instead of stdout")
    p.add_argument("--print", action="store_true",
                   help="print the terminal summary even when --html is given")
    p.add_argument("--title", default="repro observability report")
    p.set_defaults(fn=cmd_dashboard)

    p = sub.add_parser("serve", help="guarded query with fallback chain")
    p.add_argument("--model", help="serve one bundle file")
    p.add_argument("--registry", help="serve a registry's active version")
    p.add_argument("--target", help="query variable (default: the response)")
    p.add_argument("--observe", action="append", metavar="NAME=VALUE",
                   help="evidence as raw measurement means")
    p.add_argument("--threshold", type=float,
                   help="print P(D > threshold) instead of a pmf")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-query deadline in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_serve)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    trace_out = args.trace_out
    if trace_out:
        from repro import obs

        obs.enable()
    try:
        if trace_out:
            with obs.span(f"cli.{args.command}"):
                code = args.fn(args)
        else:
            code = args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if trace_out:
            with open(trace_out, "w") as fh:
                json.dump(obs.snapshot(), fh, indent=2, default=str)
                fh.write("\n")
            print(f"wrote observability snapshot to {trace_out}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
