"""Inference-serving throughput: compile-once and batched query speedups.

The paper optimizes model *construction*; this benchmark starts the
serving-side perf trajectory.  On the eDiaMoND-shaped discrete KERT-BN
it measures queries/sec for

- scratch variable elimination (factor extraction + min-fill + factor
  products per call) vs the compiled engine answering the same repeated
  single-evidence query, and
- a per-row loop of compiled queries vs one vectorized
  ``query_batch`` pass over 1k evidence rows, and
- a guarded ``ModelServer.query`` with raw service means as evidence vs
  the same call on their bin states (the raw call also bins each value)
  and vs the bare ``CompiledDiscreteModel.query`` under it
  (``guarded_over_kernel``),

asserts the compiled/batched posteriors match scratch VE to 1e-9, and
persists the numbers to ``BENCH_inference.json`` (repo root and
``benchmarks/results/``) so future PRs can track regressions.
"""

import json
import os
import time

import numpy as np
import pytest

from _util import RESULTS_DIR, emit_series, results_check

from repro.bn.inference.variable_elimination import query as ve_query
from repro.core.kertbn import build_discrete_kertbn
from repro.serving.server import ModelServer
from repro.simulator.scenarios.ediamond import ediamond_scenario

N_BATCH_ROWS = 1_000
N_BATCH_REPS = 50
N_SERVING_ROUNDS = 5
N_SERVING_CALLS = 200  # per round and side
EVIDENCE_VARS = ("X1", "X2", "D")
TARGET = "X3"


@pytest.fixture(scope="module")
def training_data():
    env = ediamond_scenario()
    return env, env.simulate(1000, rng=95_000)


@pytest.fixture(scope="module")
def discrete_model(training_data):
    env, train = training_data
    return build_discrete_kertbn(env.workflow, train, n_bins=5)


def _qps(seconds: float, n: int) -> float:
    return n / seconds if seconds > 0 else float("inf")


def _guarded_query_seconds(discrete_model, train) -> dict:
    """Per-call seconds of a guarded raw-evidence query, of the same
    query on pre-binned states and of the bare engine ``query`` on those
    states, rounds alternated so drift hits all three."""
    server = ModelServer(discrete_model, rng=0)
    engine = server.chain.engine
    raw = {
        str(n): float(np.mean(train[n]))
        for n in discrete_model.network.nodes
        if n != TARGET
    }
    disc = discrete_model.discretizer
    states = {k: disc.state_of(k, v) for k, v in raw.items()}
    raw_answer = server.query([TARGET], raw)
    binned_answer = server.query([TARGET], states, binned=True)
    assert raw_answer.ok and binned_answer.ok
    np.testing.assert_array_equal(raw_answer.value, binned_answer.value)
    np.testing.assert_array_equal(
        raw_answer.value, engine.query([TARGET], states).values
    )
    calls = (
        lambda: server.query([TARGET], raw),
        lambda: server.query([TARGET], states, binned=True),
        lambda: engine.query([TARGET], states),
    )
    spent = [0.0, 0.0, 0.0]
    for _ in range(N_SERVING_ROUNDS):
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            for _ in range(N_SERVING_CALLS):
                call()
            spent[i] += time.perf_counter() - t0
    raw_s, binned_s, kernel_s = spent
    n_calls = N_SERVING_ROUNDS * N_SERVING_CALLS
    return {
        "n_calls": n_calls,
        "evidence_vars": sorted(raw),
        "raw_query_seconds": raw_s / n_calls,
        "binned_query_seconds": binned_s / n_calls,
        "kernel_query_seconds": kernel_s / n_calls,
        "raw_call_speed_vs_binned": binned_s / raw_s,
        "guarded_over_kernel": raw_s / kernel_s,
    }


def test_inference_throughput(discrete_model, training_data, benchmark):
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

    # --- guarded serving call: raw vs binned evidence ------------------ #
    serving = _guarded_query_seconds(discrete_model, training_data[1])

    # --- acceptance criteria ------------------------------------------- #
    assert compiled_speedup >= 5.0, f"compile-once speedup {compiled_speedup:.1f}x < 5x"
    assert batch_speedup >= 5.0, f"batched speedup {batch_speedup:.1f}x < 5x"
    assert single_dev <= 1e-9 and batch_dev <= 1e-9

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
        timing=("queries_per_s", "speedup"),
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
        },
        "serving": serving,
    }
    _merge_payload(payload)

    # Representative serving unit for pytest-benchmark's tracking.
    benchmark(engine.query_batch, [TARGET], columns)


def _merge_payload(update: dict) -> None:
    """Merge ``update`` into both BENCH_inference.json copies.

    The throughput and matrix benchmarks each own a
    top-level key; merging (rather than overwriting) lets them run in
    any combination without clobbering each other's sections.  A
    results check writes nothing.
    """
    if results_check():
        return
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
