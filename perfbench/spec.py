"""Workloads and metrics of the benchmark; ``BENCHMARK.json`` is written from here.

Every workload reports every end-to-end metric, so each one is defined
on both kinds of workload: a MAPE cycle is the operation of the two loop
workloads, a guarded single call the operation of the query workload.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = [
    (
        "ediamond_mape",
        "6-service eDiaMoND loop with SLO monitor, budgets and registry: per-cycle fixed costs dominate the decision",
    ),
    (
        "mixed80_mape",
        "80-service corpus cell, bare manager: rebuild, Clark propagation and localization dominate; obs layers idle",
    ),
    (
        "ediamond_queries",
        "guarded dComp/pAccel calls, 1000-row batches and version swaps on the discrete model; no manager layer runs",
    ),
]

# (name, unit, better, bound).  On the MAPE workloads the operation is a
# cycle and its latency the decision time (run_cycle minus env.simulate);
# on the query workload it is a guarded single call, and the p50 is over
# dComp calls alone.  The two timings are in units of the reference job
# timed next to each operation (reference.py): ops_per_ref is operations
# per reference-job duration, op_p50_ref the p50 latency in reference-job
# durations.  setup_s is scaled the same way and given in seconds on the
# nominal host (reference.NOMINAL_JOB_S).  Raw values in
# 1/s and ms, and the tails (decide p90, query p99), are printed on the
# workload line but not gated: on a shared 2-core host their spread over
# ten seeds reached 0.2-0.3 of the median, above the widest bound allowed.
# Each bound is more than three times the largest spread measured over
# ten seeds in two passes (ops_per_ref 0.070, op_p50_ref 0.066); setup_s,
# whose spread reached 0.116, gets the largest.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_ref", "1/ref", "higher", 0.22),
    ("op_p50_ref", "ref", "lower", 0.2),
]

# (name, unit); README.md says which end-to-end metric each should move.
PER_LAYER = [
    ("simulator.simulate_ms", "ms"),
    ("core.manager.self_ms", "ms"),
    ("core.manager.acted_share", "share"),
    ("bn.budgets.derive_ms", "ms"),
    ("bn.budgets.blame_ms", "ms"),
    ("obs.slo.evaluate_ms", "ms"),
    ("serving.quality.publish_checked_ms", "ms"),
    ("serving.registry.publish_ms", "ms"),
    ("serving.registry.bytes_per_publish", "B"),
    ("serving.registry.load_ms", "ms"),
    ("core.kertbn.build_ms", "ms"),
    ("apps.assessment.init_ms", "ms"),
    ("apps.assessment.assess_ms", "ms"),
    ("apps.assessment.assess_calls", "count"),
    ("apps.assessment.moments_ms", "ms"),
    ("apps.localization.init_ms", "ms"),
    ("apps.localization.localize_ms", "ms"),
    ("serving.server.query_self_us", "us"),
    ("bn.discretize.state_of_us", "us"),
    ("serving.fallback.answer_self_us", "us"),
    ("bn.inference.engine.query_us", "us"),
    ("bn.inference.engine.batch_us", "us"),
    ("serving.server.batch_self_us", "us"),
    ("serving.server.refresh_ms", "ms"),
    ("bn.inference.engine.first_query_ms", "ms"),
    ("bn.inference.engine.plan_hit_ratio", "share"),
    ("serving.fallback.non_compiled_share", "share"),
    ("trace.overhead_ratio", "ratio"),
]
#: Per-layer metrics are better lower, except these.
HIGHER_IS_BETTER = {"bn.inference.engine.plan_hit_ratio"}

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = dict(PER_LAYER)


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
            for n, u in PER_LAYER
        ],
    }


def write(path: str) -> None:
    with open(path, "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
