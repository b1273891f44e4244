"""Disabled-mode observability must cost (almost) nothing on hot paths.

The instrumented hot paths guard on a single ``OBS.enabled`` attribute
read, so the honest way to bound the disabled overhead is to price that
guard directly: time a loop of attribute reads, scale it by the number
of guard evaluations a ``query_batch`` call performs, and require the
total to be under 5% of the call's own cost.  A second, coarser check
compares enabled vs disabled wall clock on the same batch with a
generous bound — it would only trip if instrumentation grew grossly
beyond counter bumps.

The measured numbers (enabled/disabled latency ratio, ``/metrics``
render latency) are persisted to ``benchmarks/results/BENCH_obs.json``
and gated by ``benchmarks/check_regression.py --suite obs`` against the
committed repo-root ``BENCH_obs.json``, which a run never overwrites, so
the near-zero-overhead contract can't silently erode.
"""

import json
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.obs import runtime
from tests.perf._host import host_bound

N_ROWS = 1_000
N_SCRAPE_RENDERS = 50

_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
_BENCH_SECTIONS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _persist_bench_payload():
    """Write ``benchmarks/results/BENCH_obs.json`` once all sections ran.

    Partial runs (``-k``) record fewer sections and skip the write, so a
    filtered test invocation can never produce a payload the regression
    gate would misread as a full measurement.  The repo-root file is the
    committed baseline and is left alone.
    """
    yield
    if set(_BENCH_SECTIONS) != {"overhead", "scrape", "budgets"}:
        return
    payload = {"model": "ediamond/discrete-kertbn(n_bins=5)", **_BENCH_SECTIONS}
    path = os.path.join(_REPO_ROOT, "benchmarks", "results", "BENCH_obs.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


@pytest.fixture(scope="module")
def batch_setup(ediamond_discrete_model):
    net = ediamond_discrete_model.network
    engine = net.compiled()
    rng = np.random.default_rng(0)
    cards = net.cardinalities
    evidence = ("X1", "X2", "D")
    states = np.array(
        [[rng.integers(0, cards[v]) for v in evidence] for _ in range(N_ROWS)],
        dtype=np.intp,
    )
    # One contiguous integer column per variable, as the serving lane sends.
    columns = dict(zip(evidence, np.ascontiguousarray(states.T)))
    target = [str(n) for n in net.nodes if str(n) not in evidence][:1]
    engine.query_batch(target, columns)  # warm the plan cache
    return engine, target, columns


def _time_batch(engine, target, columns, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        engine.query_batch(target, columns)
        best = min(best, time.perf_counter() - t0)
    return best


def _time_batch_paired(engine, target, columns, repeats=7):
    """Best-of-N disabled and enabled timings, interleaved.

    Timing the two modes in separate blocks lets machine drift (cpufreq
    transitions, a background process) land entirely on one side and
    produce a physically impossible sub-1.0 enabled/disabled ratio.
    Alternating disabled/enabled within each repeat exposes both modes
    to the same drift, and best-of-N discards the outliers.
    """
    disabled = enabled = float("inf")
    for _ in range(repeats):
        runtime.OBS.enabled = False
        t0 = time.perf_counter()
        engine.query_batch(target, columns)
        disabled = min(disabled, time.perf_counter() - t0)
        obs.enable()
        t0 = time.perf_counter()
        engine.query_batch(target, columns)
        enabled = min(enabled, time.perf_counter() - t0)
    return disabled, enabled


def test_disabled_guard_cost_under_5_percent(batch_setup):
    engine, target, columns = batch_setup
    was_enabled = runtime.OBS.enabled
    runtime.OBS.enabled = False
    try:
        per_call = _time_batch(engine, target, columns)

        # Price one guard: a loop of OBS.enabled attribute reads.
        n = 100_000
        state = runtime.OBS
        t0 = time.perf_counter()
        for _ in range(n):
            if state.enabled:  # pragma: no cover - always false here
                raise AssertionError
        per_guard = (time.perf_counter() - t0) / n

        # query_batch evaluates a handful of guards per call (entry +
        # exit + plan lookup); 10 is a generous over-count.
        guard_cost = 10 * per_guard
        assert guard_cost < 0.05 * per_call, (
            f"disabled-mode guard cost {guard_cost * 1e9:.0f}ns is not "
            f"under 5% of a query_batch call ({per_call * 1e6:.0f}us)"
        )
    finally:
        runtime.OBS.enabled = was_enabled


def test_enabled_mode_stays_in_the_same_ballpark(batch_setup):
    """Coarse tripwire: enabling obs must not multiply batch latency.

    Per batch the enabled path adds a clock read, two counter bumps and
    one histogram observe — a few microseconds against a 1,000-row
    columnar call of tens of microseconds — so 1.5x is far beyond any
    legitimate instrumentation cost.
    """
    engine, target, columns = batch_setup
    was_enabled = runtime.OBS.enabled
    try:
        disabled, enabled = _time_batch_paired(engine, target, columns)
    finally:
        obs.reset()
        runtime.OBS.enabled = was_enabled
    # Enabled mode does strictly more work, so any measured ratio below
    # 1.0 is timing noise; clamp it so a noisy run can never persist a
    # sub-1.0 baseline that the one-sided regression gate (ceiling =
    # baseline * 1.3) would turn into guaranteed CI failures.
    _BENCH_SECTIONS["overhead"] = {
        "disabled_batch_seconds": disabled,
        "enabled_batch_seconds": enabled,
        "enabled_over_disabled_ratio": max(enabled / disabled, 1.0),
    }
    assert enabled < disabled * 1.5, (
        f"enabled obs slowed query_batch {enabled / disabled:.2f}x "
        f"(disabled {disabled * 1e3:.2f}ms, enabled {enabled * 1e3:.2f}ms)"
    )


def test_scrape_render_latency_is_bounded():
    """Price one /metrics render on a realistically populated registry.

    The exporter renders from a snapshot, so the number that matters for
    scrape latency is :meth:`ExportServer.metrics_body` — socket costs
    are the OS's business.  A registry shaped like a busy deployment
    (dozens of instruments) must render well under a millisecond-scale
    scrape interval; 50ms on the benchmark's nominal host, scaled with
    the reference job like the other perf bounds, is a generous ceiling
    that only trips on a gross regression (e.g. accidental per-sample
    work).
    """
    from repro.obs.export import ExportServer

    was_enabled = runtime.OBS.enabled
    obs.enable()
    try:
        obs.reset()
        m = runtime.OBS.metrics
        for i in range(40):
            m.counter(f"bench.counter_{i}").inc(i)
            m.gauge(f"bench.gauge_{i}").set(i * 0.5)
        hist = m.histogram("bench.latency_seconds")
        for v in np.linspace(1e-4, 2.0, 500):
            hist.observe(float(v))
        server = ExportServer()  # metrics_body needs no running socket

        def render_times():
            times = []
            for _ in range(N_SCRAPE_RENDERS):
                t0 = time.perf_counter()
                body = server.metrics_body()
                times.append(time.perf_counter() - t0)
            return body, times

        (body, times), bound = host_bound(render_times, 0.05)
        assert "repro_bench_latency_seconds_bucket" in body
        times.sort()
        mean_s = sum(times) / len(times)
        p95_s = times[int(0.95 * (len(times) - 1))]
        _BENCH_SECTIONS["scrape"] = {
            "n_renders": N_SCRAPE_RENDERS,
            "mean_seconds": mean_s,
            "p95_seconds": p95_s,
        }
        assert p95_s < bound, (
            f"/metrics render p95 {p95_s * 1e3:.2f}ms exceeds the "
            f"{bound * 1e3:.1f}ms gross-regression ceiling"
        )
    finally:
        obs.reset()
        runtime.OBS.enabled = was_enabled


def test_scrape_render_runs_the_same_lines_at_any_histogram_size():
    """The counted twin of the scrape bound above: rendering histograms
    that hold 50,000 observations runs the same traced ``repro`` lines
    as rendering ones that hold 500, so a scrape does no per-sample work.

    The larger histogram holds the same 500 values 100 times, so every
    percentile lands in the same bucket.  A constant clock makes the
    exporter's own ``scrape_seconds`` observation take one path too.
    """
    from repro.obs.export import ExportServer
    from tests.perf.test_vectorization_contracts import _repro_events

    base = np.linspace(1e-4, 2.0, 500)
    was_enabled, clock = runtime.OBS.enabled, runtime.OBS.clock
    obs.enable(clock=lambda: 0.0)
    try:
        server = ExportServer()
        m = runtime.OBS.metrics

        def scrape_events(repeats):
            obs.reset()
            for i in range(40):
                m.counter(f"bench.counter_{i}").inc(i)
                m.gauge(f"bench.gauge_{i}").set(i * 0.5)
            hist = m.histogram("bench.latency_seconds")
            hist.observe_many(np.tile(base, repeats))
            return _repro_events(server.metrics_body)

        scrape_events(1)  # creates the exporter's own instruments
        few = scrape_events(1)
        assert few
        assert m.histogram("bench.latency_seconds").count == 500
        many = scrape_events(100)
        assert m.histogram("bench.latency_seconds").count == 50_000
        assert many == few
    finally:
        obs.reset()
        runtime.OBS.configure(clock=clock)
        runtime.OBS.enabled = was_enabled


def test_budget_derivation_amortizes_per_publish(ediamond_discrete_model):
    """Price the SLO-budget machinery on its two cadences.

    Budget *derivation* (inverting the KERT-BN into per-service budgets)
    runs once per model publish — a healthy manager cycle — so its cost
    amortizes over the whole monitoring interval.  Burn *tracking*
    (windowed percentile + burn classification per service) runs on
    every SLO evaluation and must therefore be far cheaper than the
    derivation it amortizes against.  Both numbers and their
    machine-independent ratio are persisted for the regression gate.
    """
    from repro.bn.budgets import derive_budgets
    from repro.obs.attribution import BUDGET_STREAM_BUCKETS, BudgetTracker
    from repro.obs.metrics import MetricsRegistry

    model = ediamond_discrete_model

    derive_s = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        alloc = derive_budgets(model, sla=3.5, target=0.1)
        derive_s = min(derive_s, time.perf_counter() - t0)
    assert alloc.feasible

    reg = MetricsRegistry()
    tracker = BudgetTracker(alloc, window=5)
    rng = np.random.default_rng(3)

    def _feed():
        for sb in alloc.budgets:
            hist = reg.histogram(
                tracker.stream_name(sb.service), buckets=BUDGET_STREAM_BUCKETS
            )
            for v in rng.normal(sb.mean, max(sb.std, 1e-3), size=60):
                hist.observe(max(float(v), 0.0))

    _feed()
    tracker.observe(reg)  # warm: windows populated, layouts cached
    track_s = float("inf")
    for _ in range(10):
        _feed()  # feeding simulates the interval; timed part is observe
        t0 = time.perf_counter()
        tracker.observe(reg)
        track_s = min(track_s, time.perf_counter() - t0)

    ratio = track_s / derive_s
    _BENCH_SECTIONS["budgets"] = {
        "n_services": len(alloc.budgets),
        "derive_seconds": derive_s,
        "track_seconds": track_s,
        "track_over_derive_ratio": ratio,
    }
    # Tracking is the hot path: it must stay cheaper than the
    # once-per-publish derivation it amortizes against (the regression
    # gate pins the measured ratio much tighter), and the derivation
    # itself must stay trivially cheap against a cadence of seconds.
    assert ratio < 1.0, (
        f"per-evaluation burn tracking ({track_s * 1e6:.0f}us) is not "
        f"cheap against budget derivation ({derive_s * 1e3:.2f}ms)"
    )
    assert derive_s < 1.0, (
        f"budget derivation took {derive_s:.2f}s — no longer amortizable "
        "against a per-cycle model publish"
    )
