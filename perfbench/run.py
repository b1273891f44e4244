"""Repository benchmark: autonomic-cycle and guarded-query workloads.

Run from the repository root::

    python3 perfbench/run.py --workload ediamond_mape --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with no wrapper but the
benchmark's own timer; ``--trace 1`` runs the same operations untraced
and then traced, checks that both give the same decisions or answers,
and reports the per-layer metrics.  The last line of standard output is
the result object; the line before it carries the workload-specific
metrics under their own names, the decision checks and the platform.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy is imported, or OpenBLAS starts one
# thread per core and the timings depend on what else the machine runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spec  # noqa: E402  (needs HERE on sys.path)


def _mean_file_size(root: str) -> float:
    sizes = [
        os.path.getsize(os.path.join(root, name))
        for name in os.listdir(root)
        if name.startswith("v") and name.endswith(".json")
    ]
    return sum(sizes) / len(sizes) if sizes else 0.0


# ---------------------------------------------------------------------- #
# MAPE workloads
# ---------------------------------------------------------------------- #


def mape_targets():
    from repro.apps.assessment import RapidAssessor
    from repro.apps.localization import ProblemLocalizer
    from repro.bn import budgets
    from repro.core import manager
    from repro.obs.slo import SLOMonitor
    from repro.serving.quality import AccuracyTripwire
    from repro.serving.registry import ModelRegistry
    from repro.simulator.environment import SimulatedEnvironment

    return [
        (manager.AutonomicManager, "run_cycle", "core.manager"),
        (SimulatedEnvironment, "simulate", "simulator.simulate"),
        (manager, "build_continuous_kertbn", "core.kertbn.build"),
        (RapidAssessor, "__init__", "apps.assessment.init"),
        (RapidAssessor, "assess", "apps.assessment.assess"),
        (RapidAssessor, "response_moments", "apps.assessment.moments"),
        (ProblemLocalizer, "__init__", "apps.localization.init"),
        (ProblemLocalizer, "localize", "apps.localization.localize"),
        (budgets, "derive_budgets", "bn.budgets.derive"),
        (budgets, "normal_blame", "bn.budgets.blame"),
        (SLOMonitor, "evaluate", "obs.slo.evaluate"),
        (AccuracyTripwire, "publish_checked", "serving.quality.publish_checked"),
        (ModelRegistry, "publish", "serving.registry.publish"),
        (ModelRegistry, "load", "serving.registry.load"),
    ]


def run_mape(workload: str, seed: int, seconds: float, trace: bool, tmp: str):
    import mape
    import reference

    schedule = mape.SCHEDULES[workload]
    if not trace:
        out = mape.run(workload, seed, seconds, tmp)
        records = out["records"]
        decide = np.array([r["decide_s"] for r in records])
        cycle = np.array([r["cycle_s"] for r in records])
        ref_s = [r["ref_s"] for r in records]
        local = reference.local_reference(ref_s, len(records), every=1)
        p50, p90 = np.percentile(decide, [50, 90])
        quality = mape.decision_metrics(out["scheduled"], schedule)
        errors = list(out["errors"])
        if quality["acted_on_injections"] == 0:
            errors.append("no injection of the decision schedule was acted on")
        detail = {
            "cycles_per_s": [len(records) / cycle.sum(), "1/s"],
            "decide_p50_ms": [p50 * 1e3, "ms"],
            "decide_p90_ms": [p90 * 1e3, "ms"],
            "target_hit_share": [quality["target_hit_share"], "share"],
            "false_action_share": [quality["false_action_share"], "share"],
            "violation_abs_err": [quality["violation_abs_err"], "prob"],
            "failed_cycle_share": [quality["failed_cycle_share"], "share"],
            "setup_s": [out["setup_s"], "s"],
            "setup_raw_s": [out["setup_raw_s"], "s"],
            "reference_ms": [np.median(ref_s) * 1e3, "ms"],
            "cycles": len(records),
            "cycles_beyond_p90": int(np.sum(decide > p90)),
            "scheduled_cycles": len(out["scheduled"]),
            "acted_on_injections": quality["acted_on_injections"],
            "violation_pairs": quality["violation_pairs"],
        }
        metrics = {
            "setup_s": out["setup_s"],
            "ops_per_ref": len(records) / np.sum(cycle / local),
            "op_p50_ref": np.percentile(decide / local, 50),
        }
        failed = sum(r["degraded"] for r in records)
        return metrics, len(records), failed, errors, detail

    from spans import Tracer, patched

    plain = mape.run(workload, seed, 0.0, os.path.join(tmp, "plain"), extend=False, setups=1)
    tracer = Tracer()
    traced = mape.run(
        workload, seed, 0.0, os.path.join(tmp, "traced"), extend=False, setups=1,
        around=lambda: patched(tracer, mape_targets()),
    )
    records = traced["records"]
    errors = list(plain["errors"]) + list(traced["errors"])
    if mape.decisions(plain["records"]) != mape.decisions(records):
        errors.append("traced run decided differently from the untraced run")
    overhead = sum(r["cycle_s"] for r in records) / sum(r["cycle_s"] for r in plain["records"])
    root = "core.manager"
    ms = lambda name: tracer.mean_self(name, root=root) * 1e3  # noqa: E731
    registry = traced["loop"].manager.registry
    metrics = {name: 0.0 for name in spec.PER_LAYER_UNITS}
    metrics.update(
        {
            "simulator.simulate_ms": ms("simulator.simulate"),
            "core.manager.self_ms": ms("core.manager"),
            "core.manager.acted_share": sum(r["target"] is not None for r in records) / len(records),
            "bn.budgets.derive_ms": ms("bn.budgets.derive"),
            "bn.budgets.blame_ms": ms("bn.budgets.blame"),
            "obs.slo.evaluate_ms": ms("obs.slo.evaluate"),
            "serving.quality.publish_checked_ms": ms("serving.quality.publish_checked"),
            "serving.registry.publish_ms": ms("serving.registry.publish"),
            "serving.registry.bytes_per_publish": _mean_file_size(registry.root) if registry else 0.0,
            "serving.registry.load_ms": ms("serving.registry.load"),
            "core.kertbn.build_ms": ms("core.kertbn.build"),
            "apps.assessment.init_ms": ms("apps.assessment.init"),
            "apps.assessment.assess_ms": ms("apps.assessment.assess"),
            "apps.assessment.assess_calls": tracer.n_calls("apps.assessment.assess", root=root) / len(records),
            "apps.assessment.moments_ms": ms("apps.assessment.moments"),
            "apps.localization.init_ms": ms("apps.localization.init"),
            "apps.localization.localize_ms": ms("apps.localization.localize"),
            "trace.overhead_ratio": overhead,
        }
    )
    failed = sum(r["degraded"] for r in records)
    return metrics, len(records), failed, errors, {"tracer": tracer}


# ---------------------------------------------------------------------- #
# Query workload
# ---------------------------------------------------------------------- #


def query_targets():
    import queries
    from repro.bn.discretize import Discretizer
    from repro.bn.inference.engine import CompiledDiscreteModel
    from repro.serving.fallback import FallbackChain
    from repro.serving.registry import ModelRegistry
    from repro.serving.server import ModelServer

    return [
        (queries.Traffic, "_swap", "bench.swap"),
        (ModelServer, "query", "serving.server.query"),
        (ModelServer, "project", "serving.server.query"),
        (ModelServer, "violation_prob", "serving.server.query"),
        (ModelServer, "query_batch_columns", "serving.server.batch"),
        (ModelServer, "refresh", "serving.server.refresh"),
        (Discretizer, "state_of", "bn.discretize.state_of"),
        (FallbackChain, "answer", "serving.fallback.answer"),
        (CompiledDiscreteModel, "query", "bn.inference.engine.query"),
        (CompiledDiscreteModel, "query_batch", "bn.inference.engine.batch"),
        (ModelRegistry, "publish", "serving.registry.publish"),
        (ModelRegistry, "load", "serving.registry.load"),
    ]


def run_queries(seed: int, seconds: float, trace: bool, tmp: str):
    import queries
    import reference

    if not trace:
        out = queries.run(seed, seconds, tmp)
        traffic = out["traffic"]
        q = queries.metrics(traffic)
        detail = {
            "queries_per_s": [q["queries_per_s"], "1/s"],
            "query_p50_us": [q["query_p50_us"], "us"],
            **{f"{k}_p50_us": [q[f"{k}_p50_us"], "us"] for k in queries.KIND_NAMES},
            "query_p99_us": [q["query_p99_us"], "us"],
            "batch_rows_per_s": [q["batch_rows_per_s"], "rows/s"],
            "swap_p50_ms": [q["swap_p50_ms"], "ms"],
            "failed_query_share": [q["failed_query_share"], "share"],
            "setup_s": [out["setup_s"], "s"],
            "setup_raw_s": [out["setup_raw_s"], "s"],
            "reference_ms": [q["ref_ms"], "ms"],
            "single_calls": q["n_single"],
            "batches": q["n_batches"],
            "swaps": q["n_swaps"],
        }
        single = np.asarray(traffic.single_s)
        scaled = single / reference.local_reference(traffic.ref_s, single.size, every=queries.REF_EVERY)
        # The gated p50 is that of the dComp calls alone: the kinds differ
        # in cost, so a p50 over the mix would sit between their modes.
        dcomp = queries.single_kinds(traffic) == queries.KIND_NAMES.index("dcomp")
        metrics = {
            "setup_s": out["setup_s"],
            "ops_per_ref": single.size / scaled.sum(),
            "op_p50_ref": np.percentile(scaled[dcomp], 50),
        }
        errors = list(traffic.errors)
        if q["n_swaps"] == 0 or q["n_batches"] == 0:
            errors.append("the run was too short to reach a swap and a batch")
        return metrics, traffic.attempted, traffic.failed, errors, detail

    from spans import Tracer, patched

    # A discarded warm-up first, so neither measured phase pays for
    # first-call imports and allocator growth.
    queries.run(seed, 0.0, os.path.join(tmp, "warm"), steps=2 * queries.SWAP_EVERY, setups=1)
    plain = queries.run(seed, seconds / 2, os.path.join(tmp, "plain"), setups=1)["traffic"]
    tracer = Tracer()
    traced = queries.run(
        seed, 0.0, os.path.join(tmp, "traced"), steps=plain.n_single, setups=1,
        around=lambda: patched(tracer, query_targets()),
    )["traffic"]
    errors = list(plain.errors) + list(traced.errors)
    if plain.digest.digest() != traced.digest.digest():
        errors.append("traced run answered differently from the untraced run")
    spent = lambda t: sum(t.single_s) + sum(t.batch_s) + sum(t.swap_s)  # noqa: E731
    us = lambda name, root, parent=None: tracer.mean_self(name, root=root, parent=parent) * 1e6  # noqa: E731
    single = "serving.server.query"
    answer = "serving.fallback.answer"
    metrics = {name: 0.0 for name in spec.PER_LAYER_UNITS}
    hits, compiles = traced.plan_hits, traced.plan_compiles
    metrics.update(
        {
            "serving.server.query_self_us": us(single, single),
            "bn.discretize.state_of_us": us("bn.discretize.state_of", single),
            "serving.fallback.answer_self_us": us(answer, single),
            "bn.inference.engine.query_us": us("bn.inference.engine.query", single, answer),
            "bn.inference.engine.batch_us": us("bn.inference.engine.batch", "serving.server.batch"),
            "serving.server.batch_self_us": us("serving.server.batch", "serving.server.batch"),
            "serving.registry.publish_ms": us("serving.registry.publish", "bench.swap") / 1e3,
            "serving.registry.bytes_per_publish": _mean_file_size(traced.service.registry.root),
            "serving.registry.load_ms": us("serving.registry.load", "bench.swap") / 1e3,
            "serving.server.refresh_ms": us("serving.server.refresh", "bench.swap") / 1e3,
            "bn.inference.engine.first_query_ms": us("bn.inference.engine.query", "bench.swap", answer) / 1e3,
            "bn.inference.engine.plan_hit_ratio": hits / (hits + compiles) if hits + compiles else 0.0,
            "serving.fallback.non_compiled_share": traced.non_compiled / max(traced.n_single, 1),
            "trace.overhead_ratio": spent(traced) / spent(plain),
        }
    )
    return metrics, traced.attempted, traced.failed, errors, {"tracer": tracer}


# ---------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        spec.write(os.path.join(ROOT, "BENCHMARK.json"))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        if args.workload == "ediamond_queries":
            metrics, attempted, failed, errors, detail = run_queries(
                args.seed, args.seconds, bool(args.trace), tmp
            )
        else:
            metrics, attempted, failed, errors, detail = run_mape(
                args.workload, args.seed, args.seconds, bool(args.trace), tmp
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = spec.PER_LAYER_UNITS if args.trace else spec.END_TO_END_UNITS
    tracer = detail.pop("tracer", None)
    if tracer is not None:
        out_dir = os.path.join(ROOT, ".perfbench-out")
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        detail = {
            "queue_wait": "none: one synchronous caller, so no layer has a queue",
            "spans_file": f".perfbench-out/spans-{args.workload}-{args.seed}.jsonl",
        }
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "errors": errors[:20],
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
    )
    print(json.dumps(detail))
    result = {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
