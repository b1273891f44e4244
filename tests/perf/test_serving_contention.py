"""Contention micro-checks for the serving substrate's locks.

:class:`~repro.serving.server.ModelServer` is a thread-safe public API
(``tests/serving/test_concurrency.py`` pins its invariants), so
:class:`CircuitBreaker`, the metrics registry's ``serving.*`` counters
and the engine's plan cache each guard their state with a lock.  Those
locks must stay *fine-grained*: hot-path critical
sections are a few dict/int operations, so threaded throughput through
the guards should be within a small constant of the single-threaded
rate, not serialized behind one coarse lock held across kernel work.
Bounds are generous — they trip on accidental coarsening (e.g. holding
the cache lock during a plan build), not on scheduler noise.  On a
shared 2-core host one threaded run can land several times slower than
the single-threaded one, so each side is the median of
:data:`N_REPEATS` interleaved runs rather than one sample.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serving import server
from repro.serving.breaker import CircuitBreaker
from repro.serving.server import QueryResult

N_OPS = 20_000
N_THREADS = 4
N_REPEATS = 5


def _rate(fn, n):
    t0 = time.perf_counter()
    fn(n)
    return n / (time.perf_counter() - t0)


def _threaded_rate(fn, n):
    t0 = time.perf_counter()
    with ThreadPoolExecutor(N_THREADS) as ex:
        list(ex.map(fn, [n // N_THREADS] * N_THREADS))
    return n / (time.perf_counter() - t0)


def _median_rates(fn, n):
    """Median single-thread and threaded rates over interleaved repeats,
    so a burst of host noise lands on both sides instead of one."""
    single, threaded = [], []
    for _ in range(N_REPEATS):
        single.append(_rate(fn, n))
        threaded.append(_threaded_rate(fn, n))
    return float(np.median(single)), float(np.median(threaded))


def test_breaker_stats_guard_overhead_stays_cheap(obs_on):
    """One guarded decision (breaker + ``serving.*`` counts) must stay
    in the few-microsecond range — the locks add nanoseconds, not a
    syscall-shaped cliff."""
    breaker = CircuitBreaker(failure_threshold=3, cooldown=10)
    ok = QueryResult(status="ok", tier="compiled-einsum")

    def loop(n):
        for _ in range(n):
            if breaker.allow():
                breaker.record_success()
                server._count(ok)

    rate = _rate(loop, N_OPS)
    # Locked guard stack: comfortably >50k decisions/s on any hardware
    # this suite runs on (measured: several hundred k/s).
    assert rate > 50_000, f"guard stack too slow: {rate:,.0f} ops/s"


def test_guards_scale_under_contention(obs_on):
    """4 threads hammering the same guard objects must retain at least
    ~half of the single-thread aggregate rate — a coarse lock held
    around anything expensive collapses this to ~1/N."""
    breaker = CircuitBreaker(failure_threshold=3, cooldown=10)
    ok = QueryResult(status="ok", tier="compiled-einsum")

    def loop(n):
        for _ in range(n):
            if breaker.allow():
                breaker.record_success()
                server._count(ok)

    single, contended = _median_rates(loop, N_OPS)

    # Python threads serialize on the GIL anyway; the locks must not
    # make it materially worse than GIL-bound single-thread throughput.
    assert contended > single / 5.0, (
        f"lock contention collapse: {contended:,.0f} ops/s threaded vs "
        f"{single:,.0f} ops/s single"
    )


def test_plan_cache_lock_not_held_across_kernel_work(
    ediamond_discrete_model,
):
    """Cache-hit queries from 4 threads must sustain most of the
    single-thread rate: the cache lock covers only the OrderedDict
    bookkeeping, never the einsum/gather itself."""
    from repro.bn.inference.engine import CompiledDiscreteModel

    engine = CompiledDiscreteModel(ediamond_discrete_model.network)
    response = ediamond_discrete_model.response
    evidence = {"X1": 1}
    engine.query([response], evidence)  # compile outside the timing
    n = 2_000

    def loop(k):
        for _ in range(k):
            engine.query([response], evidence)

    single, contended = _median_rates(loop, n)

    assert contended > single / 5.0, (
        f"plan-cache contention collapse: {contended:,.0f} q/s threaded "
        f"vs {single:,.0f} q/s single"
    )
    cs = engine.cache_stats()
    # Every query after the compile hits: N_REPEATS single-thread and
    # threaded passes of n queries each.
    assert cs["hits"] >= 2 * N_REPEATS * n - 1
