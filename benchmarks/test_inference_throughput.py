"""Inference-serving throughput: compile-once and batched query speedups.

The paper optimizes model *construction*; this benchmark starts the
serving-side perf trajectory.  On the eDiaMoND-shaped discrete KERT-BN
it measures queries/sec for

- scratch variable elimination (factor extraction + min-fill + factor
  products per call) vs the compiled engine answering the same repeated
  single-evidence query, and
- a per-row loop of compiled queries vs one vectorized
  ``query_batch`` pass over 1k evidence rows,

asserts the compiled/batched posteriors match scratch VE to 1e-9, and
persists the numbers to ``BENCH_inference.json`` (repo root and
``benchmarks/results/``) so future PRs can track regressions.
"""

import json
import os
import time

import numpy as np
import pytest

from _util import RESULTS_DIR, emit_series

from repro.bn.inference.engine import FLOAT32_MAX_DEVIATION
from repro.bn.inference.variable_elimination import query as ve_query
from repro.core.kertbn import build_discrete_kertbn
from repro.simulator.scenarios.ediamond import ediamond_scenario

N_BATCH_ROWS = 1_000
N_BATCH_REPS = 50
EVIDENCE_VARS = ("X1", "X2", "D")
TARGET = "X3"


@pytest.fixture(scope="module")
def discrete_model():
    env = ediamond_scenario()
    train = env.simulate(1000, rng=95_000)
    return build_discrete_kertbn(env.workflow, train, n_bins=5)


def _qps(seconds: float, n: int) -> float:
    return n / seconds if seconds > 0 else float("inf")


def test_inference_throughput(discrete_model, benchmark):
    net = discrete_model.network
    engine = net.compiled()
    cards = net.cardinalities
    evidence = {"X1": 1, "X2": 2, "D": 3}

    # --- compile-once: repeated single queries ------------------------- #
    n_single = 100
    engine.query([TARGET], evidence)  # compile outside the timing
    t0 = time.perf_counter()
    for _ in range(n_single):
        ve_query(net, [TARGET], evidence)
    scratch_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n_single):
        compiled_factor = engine.query([TARGET], evidence)
    compiled_s = time.perf_counter() - t0
    compiled_speedup = scratch_s / compiled_s

    scratch_factor = ve_query(net, [TARGET], evidence)
    single_dev = float(
        np.max(np.abs(compiled_factor.values - scratch_factor.values))
    )

    # --- batched evidence rows ----------------------------------------- #
    rng = np.random.default_rng(0)
    columns = {
        v: rng.integers(0, cards[v], size=N_BATCH_ROWS).astype(np.intp)
        for v in EVIDENCE_VARS
    }
    engine.query_batch([TARGET], columns)  # warm the batch plan
    # One joint-table gather over 1k rows takes tens of µs now; repeat
    # the call so the measured qps is not timer-resolution noise.
    t0 = time.perf_counter()
    for _ in range(N_BATCH_REPS):
        batched = engine.query_batch([TARGET], columns)
    batch_s = (time.perf_counter() - t0) / N_BATCH_REPS
    t0 = time.perf_counter()
    for i in range(N_BATCH_ROWS):
        row = {v: int(col[i]) for v, col in columns.items()}
        engine.query([TARGET], row)
    loop_s = time.perf_counter() - t0
    batch_speedup = loop_s / batch_s

    batch_dev = 0.0
    for i in range(0, N_BATCH_ROWS, 97):  # spot-check rows against scratch VE
        row = {v: int(col[i]) for v, col in columns.items()}
        ref = ve_query(net, [TARGET], row).values
        batch_dev = max(batch_dev, float(np.max(np.abs(batched[i] - ref))))

    # --- single-precision batch path ----------------------------------- #
    engine.query_batch([TARGET], columns, dtype=np.float32)  # warm f32 table
    t0 = time.perf_counter()
    for _ in range(N_BATCH_REPS):
        batched_f32 = engine.query_batch([TARGET], columns, dtype=np.float32)
    batch_f32_s = (time.perf_counter() - t0) / N_BATCH_REPS
    f32_dev = float(np.max(np.abs(batched_f32.astype(np.float64) - batched)))

    # --- acceptance criteria ------------------------------------------- #
    assert compiled_speedup >= 5.0, f"compile-once speedup {compiled_speedup:.1f}x < 5x"
    assert batch_speedup >= 5.0, f"batched speedup {batch_speedup:.1f}x < 5x"
    assert single_dev <= 1e-9 and batch_dev <= 1e-9
    assert f32_dev <= FLOAT32_MAX_DEVIATION, (
        f"float32 deviation {f32_dev:.2e} > documented bound "
        f"{FLOAT32_MAX_DEVIATION:.0e}"
    )

    rows = [
        {
            "path": "scratch VE (per call)",
            "queries_per_s": _qps(scratch_s, n_single),
            "speedup": 1.0,
        },
        {
            "path": "compiled engine (repeated)",
            "queries_per_s": _qps(compiled_s, n_single),
            "speedup": compiled_speedup,
        },
        {
            "path": "compiled engine (row loop)",
            "queries_per_s": _qps(loop_s, N_BATCH_ROWS),
            "speedup": scratch_s / n_single * N_BATCH_ROWS / loop_s,
        },
        {
            "path": f"query_batch ({N_BATCH_ROWS} rows)",
            "queries_per_s": _qps(batch_s, N_BATCH_ROWS),
            "speedup": scratch_s / n_single * N_BATCH_ROWS / batch_s,
        },
    ]
    emit_series(
        "BENCH_inference",
        f"eDiaMoND discrete KERT-BN, P({TARGET} | {', '.join(EVIDENCE_VARS)})",
        rows,
    )
    payload = {
        "model": "ediamond/discrete-kertbn(n_bins=5)",
        "query": {"variables": [TARGET], "evidence_vars": list(EVIDENCE_VARS)},
        "single": {
            "scratch_qps": _qps(scratch_s, n_single),
            "compiled_qps": _qps(compiled_s, n_single),
            "compile_once_speedup": compiled_speedup,
            "max_abs_deviation_vs_scratch": single_dev,
        },
        "batched": {
            "n_rows": N_BATCH_ROWS,
            "per_row_loop_qps": _qps(loop_s, N_BATCH_ROWS),
            "batched_qps": _qps(batch_s, N_BATCH_ROWS),
            "batched_speedup_vs_loop": batch_speedup,
            "max_abs_deviation_vs_scratch": batch_dev,
            "float32": {
                "batched_qps": _qps(batch_f32_s, N_BATCH_ROWS),
                "speedup_vs_float64": batch_s / batch_f32_s,
                "max_abs_deviation_vs_float64": f32_dev,
                "documented_bound": FLOAT32_MAX_DEVIATION,
            },
        },
    }
    _merge_payload(payload)

    # Representative serving unit for pytest-benchmark's tracking.
    benchmark(engine.query_batch, [TARGET], columns)


def _merge_payload(update: dict) -> None:
    """Merge ``update`` into both BENCH_inference.json copies.

    The throughput and matrix benchmarks each own a
    top-level key; merging (rather than overwriting) lets them run in
    any combination without clobbering each other's sections.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for path in (
        os.path.join(RESULTS_DIR, "BENCH_inference.json"),
        os.path.join(os.path.dirname(__file__), "..", "BENCH_inference.json"),
    ):
        payload = {}
        if os.path.exists(path):
            with open(path) as fh:
                payload = json.load(fh)
        payload.update(update)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
