"""Performance contracts: the hot paths must stay vectorized.

These are not micro-benchmarks (see ``benchmarks/``) but regression
tripwires: each asserts a generous wall-clock bound that only a
vectorized NumPy implementation can meet on a single core — a per-row
Python loop would blow through it by an order of magnitude.  Every bound
holds on the benchmark's nominal host and scales with the reference job
timed around the measurement (:func:`tests.perf._host.host_bound`) or
beside each repetition (:func:`tests.perf._host.interleaved_bound`).
Each timed bound has a counted twin that runs the same call on 1,000 and
on ``N_ROWS`` rows and compares the Python lines it runs.
"""

import os
import sys
import time

import numpy as np
import pytest

from repro.bn.data import Dataset
from tests.perf._host import host_bound, interleaved_bound


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


N_ROWS = 200_000


def _chain_net():
    from repro.bn.cpd import LinearGaussianCPD
    from repro.bn.dag import DAG
    from repro.bn.network import GaussianBayesianNetwork

    dag = DAG(nodes=["a", "b", "c"], edges=[("a", "b"), ("b", "c")])
    return GaussianBayesianNetwork(
        dag,
        [
            LinearGaussianCPD("a", 1.0, (), 0.5),
            LinearGaussianCPD("b", 0.5, [2.0], 0.3, ("a",)),
            LinearGaussianCPD("c", -1.0, [1.5], 0.2, ("b",)),
        ],
    )


def _tabular_data(rng):
    return Dataset({c: rng.integers(0, 5, size=N_ROWS) for c in ("x", "p", "q")})


def _ediamond_f_columns():
    from repro.simulator.scenarios.ediamond import ediamond_workflow
    from repro.workflow.response_time import response_time_function

    f = response_time_function(ediamond_workflow())
    rng = np.random.default_rng(0)
    return f, {s: rng.exponential(size=N_ROWS) for s in f.inputs}


def _deterministic_cpd_data(rng):
    from repro.bn.cpd import DeterministicCPD
    from repro.workflow.expressions import Sum, Var

    cpd = DeterministicCPD(
        "d",
        Sum([Var("a"), Var("b")]),
        ("a", "b"),
        {"a": np.linspace(0, 1, 8), "b": np.linspace(0, 1, 8)},
        np.linspace(-0.1, 2.1, 9),
        leak=0.1,
    )
    data = Dataset({c: rng.integers(0, 8, size=N_ROWS) for c in ("d", "a", "b")})
    return cpd, data


def _fitted_discretizer(rng):
    from repro.bn.discretize import Discretizer

    data = Dataset({"x": rng.exponential(size=N_ROWS)})
    return Discretizer(n_bins=8).fit(data), data


@pytest.fixture(scope="module")
def big_gaussian_data():
    net = _chain_net()
    (data, secs), bound = host_bound(lambda: timed(net.sample, N_ROWS, 0), 2.0)
    assert secs < bound  # ancestral sampling is vectorized per node
    return net, data


def test_log_likelihood_vectorized(big_gaussian_data):
    net, data = big_gaussian_data
    (_, secs), bound = host_bound(lambda: timed(net.log_likelihood, data), 0.5)
    assert secs < bound


def test_linear_gaussian_fit_vectorized(big_gaussian_data):
    """A fit on 200,000 rows within 0.5 s on the benchmark's nominal host;
    the counted twin below pins the work itself."""
    from repro.bn.learning.mle import fit_linear_gaussian

    _, data = big_gaussian_data
    (_, secs), bound = host_bound(
        lambda: timed(fit_linear_gaussian, data, "c", ("a", "b")), 0.5
    )
    assert secs < bound, f"fit {secs * 1e3:.1f} ms >= {bound * 1e3:.1f} ms"


def test_linear_gaussian_fit_is_one_solve(monkeypatch, big_gaussian_data):
    """The counted twin of the timed bound above: a fit is one
    ``np.linalg.solve`` and runs as many Python calls and lines on
    200,000 rows as on 1,000, so no Python runs per row."""
    import sys
    from collections import Counter

    from repro.bn.learning.mle import fit_linear_gaussian

    _, data = big_gaussian_data
    solves = []
    real_solve = np.linalg.solve

    def counting(a, b):
        solves.append(a.shape)
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)

    def traced(rows):
        """Python calls and lines run by one fit (a loop repeats its lines)."""
        events = Counter()

        def trace(frame, event, arg):
            events[event] += 1
            return trace

        outer = sys.gettrace()
        sys.settrace(trace)
        try:
            fit_linear_gaussian(rows, "c", ("a", "b"))
        finally:
            sys.settrace(outer)
        return events

    few = traced(data.head(1000))
    assert solves == [(1, 3, 3)]
    assert traced(data) == few
    assert solves == [(1, 3, 3)] * 2


def test_mixed80_refit_is_one_solve_per_parent_count(monkeypatch):
    """A mixed80 refit solves its 63 non-root service CPDs in 4 stacked
    ``np.linalg.solve`` calls, one per parent count (54 / 5 / 1 / 3 CPDs
    with 1 / 2 / 3 / 4 parents), and still times every node's own step."""
    from repro.core.kertbn import build_continuous_kertbn, derive_knowledge
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    spec = ScenarioSpec("mixed", 80, "gg1", arrivals="diurnal", failure_storm=True)
    env = build_scenario(spec, seed=20260808).env
    knowledge = derive_knowledge(env.workflow, env.response)
    window = env.simulate(120, rng=0)
    solves = []
    real_solve = np.linalg.solve

    def counting(a, b):
        solves.append(a.shape)
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    model = build_continuous_kertbn(knowledge, window)
    assert solves == [(54, 2, 2), (5, 3, 3), (1, 4, 4), (3, 5, 5)]
    assert set(model.report.per_cpd_seconds) == set(model.network.nodes)
    assert len(model.report.per_cpd_seconds) == 81


def test_tabular_counting_vectorized(rng):
    from repro.bn.learning.mle import fit_tabular

    data = _tabular_data(rng)
    (_, secs), bound = host_bound(
        lambda: timed(fit_tabular, data, "x", 5, ("p", "q"), (5, 5)), 0.5
    )
    assert secs < bound


def test_workflow_expression_vectorized():
    f, cols = _ediamond_f_columns()
    (_, secs), bound = host_bound(lambda: timed(f, cols), 0.2)
    assert secs < bound


def test_deterministic_cpd_loglik_vectorized(rng):
    cpd, data = _deterministic_cpd_data(rng)
    (_, secs), bound = host_bound(lambda: timed(cpd.log_likelihood, data), 0.5)
    assert secs < bound


def test_discretizer_transform_vectorized(rng):
    disc, data = _fitted_discretizer(rng)
    (_, secs), bound = host_bound(lambda: timed(disc.transform, data), 0.3)
    assert secs < bound


def _contract_runs(contract, rng):
    """``run(n)``: the timed call of ``contract`` on its first ``n`` rows."""
    if contract == "sample":
        net = _chain_net()
        return lambda n: net.sample(n, 0)
    if contract == "log_likelihood":
        net = _chain_net()
        data = net.sample(N_ROWS, 0)
        return lambda n: net.log_likelihood(data.head(n))
    if contract == "fit_tabular":
        from repro.bn.learning.mle import fit_tabular

        data = _tabular_data(rng)
        return lambda n: fit_tabular(data.head(n), "x", 5, ("p", "q"), (5, 5))
    if contract == "ediamond_f":
        f, cols = _ediamond_f_columns()
        return lambda n: f({s: c[:n] for s, c in cols.items()})
    if contract == "deterministic_log_likelihood":
        cpd, data = _deterministic_cpd_data(rng)
        return lambda n: cpd.log_likelihood(data.head(n))
    disc, data = _fitted_discretizer(rng)
    return lambda n: disc.transform(data.head(n))


def _repro_events(fn):
    """The ``(event, file, line)`` sequence ``fn()`` runs inside ``repro``."""
    import repro

    root = os.path.dirname(repro.__file__) + os.sep
    events = []

    def local(frame, event, arg):
        events.append((event, frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(root):
            return local(frame, event, arg)
        return None

    outer = sys.gettrace()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(outer)
    return events


@pytest.mark.parametrize(
    "contract",
    [
        "sample",
        "log_likelihood",
        "fit_tabular",
        "ediamond_f",
        "deterministic_log_likelihood",
        "discretizer_transform",
    ],
)
def test_vectorized_contract_runs_the_same_lines_at_any_size(contract, rng):
    """The counted twin of each timed bound above: ``N_ROWS`` rows run
    the same traced ``repro`` lines as 1,000, so no Python runs per row."""
    run = _contract_runs(contract, rng)
    few = _repro_events(lambda: run(1000))
    assert few
    assert _repro_events(lambda: run(N_ROWS)) == few


def test_raw_evidence_query_bins_without_numpy(
    monkeypatch, ediamond_discrete_model, ediamond_data
):
    """A guarded raw-evidence query bins each value with a scalar lookup:
    no ``np.digitize`` / ``np.clip`` on one-element arrays, counted
    rather than timed, and the same answer as the pre-binned call."""
    from repro.serving.server import ModelServer

    model = ediamond_discrete_model
    train, _ = ediamond_data
    target = "X4"
    raw = {
        str(n): float(np.mean(train[n]))
        for n in model.network.nodes
        if n != target
    }
    srv = ModelServer(model, rng=0)
    srv.query([target], raw)  # compile outside the count
    calls = {"digitize": 0, "clip": 0}
    for name in calls:
        fn = getattr(np, name)

        def counting(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    result = srv.query([target], raw)
    assert result.ok and len(raw) == 6
    assert calls == {"digitize": 0, "clip": 0}
    disc = model.discretizer
    states = {k: disc.state_of(k, v) for k, v in raw.items()}
    binned = srv.query([target], states, binned=True)
    np.testing.assert_array_equal(result.value, binned.value)


def _numpy_reductions(fn):
    """Run ``fn()`` under ``sys.setprofile`` and list the numpy
    reductions it calls from C: ``ndarray.sum``/``any``, ``numpy.any``
    and any ufunc's ``reduce``."""
    import sys

    seen = []

    def profile(frame, event, arg):
        if event != "c_call":
            return
        name = getattr(arg, "__name__", "")
        owner = getattr(arg, "__self__", None)
        if (name == "reduce" and isinstance(owner, np.ufunc)) or (
            name in ("sum", "any")
            and (
                isinstance(owner, np.ndarray)
                or getattr(arg, "__module__", "").startswith("numpy")
            )
        ):
            seen.append(name)

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, seen


def test_plan_hit_guarded_query_is_one_gather(
    monkeypatch, ediamond_discrete_model, ediamond_data
):
    """A guarded raw-evidence query whose plan is cached builds no
    ``DiscreteFactor`` and calls no numpy reduction: the plan stored its
    rows normalized, so the answer is one gather.  Counted, not timed,
    and the same answer as the engine's own ``query``."""
    from repro.bn.factors import DiscreteFactor
    from repro.serving.server import ModelServer

    model = ediamond_discrete_model
    train, _ = ediamond_data
    target = "X4"
    raw = {
        str(n): float(np.mean(train[n]))
        for n in model.network.nodes
        if n != target
    }
    srv = ModelServer(model, rng=0)
    srv.query([target], raw)  # compile the plan outside the count
    engine = srv.chain.engine
    disc = model.discretizer
    states = {k: disc.state_of(k, v) for k, v in raw.items()}
    # The counter sees the reductions the factor path still makes.
    _, seen = _numpy_reductions(lambda: engine.query([target], states))
    assert seen
    built = []
    init = DiscreteFactor.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0] if args else kwargs.get("variables"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(DiscreteFactor, "__init__", counting)
    hits = engine.cache_stats()["hits"]
    result, seen = _numpy_reductions(lambda: srv.query([target], raw))
    assert result.ok and engine.cache_stats()["hits"] == hits + 1
    assert built == [] and seen == []
    np.testing.assert_array_equal(
        result.value, engine.query([target], states).values
    )


def test_localize_is_one_batched_sweep():
    """One localize over 80 services runs the moment plan once, batched.

    A per-service loop of full assessments takes ~0.6 s here; the
    batched sweep takes 7-13 ms on a shared 2-core x86 host.  The 30 ms
    bound holds on the benchmark's nominal host.  Each call is scaled by
    reference jobs timed right beside it, so a load burst that slows the
    calls raises their bound as well.
    """
    from repro.apps.localization import ProblemLocalizer
    from repro.core.kertbn import build_continuous_kertbn
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    env = build_scenario(ScenarioSpec("mixed", 80, "gg1")).env
    window = env.simulate(120, rng=0)
    localizer = ProblemLocalizer(build_continuous_kertbn(env.workflow, window))
    observed = {s: 1.5 * float(np.mean(window[s])) for s in env.service_names}
    localizer.localize(observed)  # first call pays allocator growth
    secs, bound = interleaved_bound(lambda: localizer.localize(observed), 0.03)
    assert secs < bound, f"localize {secs * 1e3:.1f} ms >= {bound * 1e3:.1f} ms"


def test_localize_runs_the_moment_plan_once(monkeypatch):
    """The counted twin of the timed bound above, on the same mixed80
    cell: one ``localize`` is one ``_MomentPlan.run`` sweep over every
    service at once and never a per-service ``RapidAssessor.assess``."""
    from collections import Counter

    from repro.apps import assessment
    from repro.apps.localization import ProblemLocalizer
    from repro.core.kertbn import build_continuous_kertbn
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    env = build_scenario(ScenarioSpec("mixed", 80, "gg1")).env
    window = env.simulate(120, rng=0)
    localizer = ProblemLocalizer(build_continuous_kertbn(env.workflow, window))
    observed = {s: 1.5 * float(np.mean(window[s])) for s in env.service_names}
    calls = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in [
        (assessment._MomentPlan, "run"),
        (assessment.RapidAssessor, "assess"),
    ]:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    for n in range(1, 3):
        suspects = localizer.localize(observed)
        assert len(suspects) == len(env.service_names)
        assert calls == {"run": n}


def test_simulate_window_is_compiled():
    """One 120-point window on the mixed80 bench env runs the compiled engine.

    Best of 10 on a shared 2-core x86 host: 17-23 ms quiet and up to
    35 ms loaded with the workflow compiled once per run into an event
    program that draws delays in per-service blocks and begins unqueued
    jobs inline; 35-44 ms quiet and 62-71 ms loaded with three scalar
    draws per G/G/1 delay and a zero-time arrive event per activity.
    The 50 ms bound holds on the benchmark's nominal host; the counted
    twin below pins the block draws themselves.
    """
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    spec = ScenarioSpec("mixed", 80, "gg1", arrivals="diurnal", failure_storm=True)
    env = build_scenario(spec, seed=20260808).env
    env.simulate(120, rng=0)  # warm imports and allocator
    secs, bound = host_bound(
        lambda: min(timed(env.simulate, 120, rng=seed)[1] for seed in range(1, 11)),
        0.05,
    )
    assert secs < bound, f"simulate {secs * 1e3:.1f} ms >= {bound * 1e3:.1f} ms"


def test_simulate_window_draws_delays_in_blocks(monkeypatch):
    """The counted twin of the timed bound above, on the same mixed80
    cell: a 120-point window draws each service's delays in blocks of
    32 to 1024, so the delay ``sample`` calls are O(services) and never
    one per job."""
    from collections import Counter

    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    spec = ScenarioSpec("mixed", 80, "gg1", arrivals="diurnal", failure_storm=True)
    env = build_scenario(spec, seed=20260808).env
    calls = Counter()
    sizes = []

    def counting(name, fn):
        def wrapper(rng, size=None):
            calls[name] += 1
            sizes.append(size)
            return fn(rng, size=size)

        return wrapper

    for service in env.services:
        delay = service.delay
        monkeypatch.setattr(delay, "sample", counting(service.name, delay.sample))
    records = env.run_transactions(120, rng=1)
    jobs = sum(sum(r.invocations.values()) for r in records)
    # Blocks of 32, 64, ..., 1024 then 1024: ten blocks cover 6112 jobs
    # of one service.  Here 156 calls (at most 3 per service) draw the
    # delays of more than 5000 jobs.
    assert min(sizes) >= 32
    assert max(calls.values()) <= 10
    assert sum(calls.values()) <= 4 * len(env.services)
    assert sum(calls.values()) < jobs / 10


def test_manager_cycle_cost_contract(monkeypatch):
    """Six manager cycles on the mixed80 cell, counted rather than timed.

    The workflow knowledge (``f`` and the DAG) is derived once, one
    moment plan serves every model refitted from it, a healthy cycle
    runs one evidence-free sweep (read by both ``assess`` and
    ``violation_probability``), and ``history`` stays bounded while
    ``report.cycle`` keeps counting.
    """
    from repro.apps import assessment
    from repro.core import kertbn
    from repro.core import manager as manager_mod
    from repro.core.manager import AutonomicManager, SLAPolicy
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    calls = {"f": 0, "dag": 0, "plans": 0, "runs": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    plan = assessment._MomentPlan
    for owner, name, key in [
        (kertbn, "response_time_function", "f"),
        (kertbn, "kert_bn_structure", "dag"),
        (plan, "__init__", "plans"),
        (plan, "run", "runs"),
    ]:
        monkeypatch.setattr(owner, name, counting(key, getattr(owner, name)))
    monkeypatch.setattr(manager_mod, "HISTORY_LIMIT", 4)

    spec = ScenarioSpec("mixed", 80, "gg1", arrivals="diurnal", failure_storm=True)
    env = build_scenario(spec, seed=20260808).env
    sla = float(np.quantile(env.simulate(120, rng=0)[env.response], 0.9))
    mgr = AutonomicManager(env, SLAPolicy(sla, 0.15), window_points=120, rng=0)
    healthy = acted = 0
    for cycle in range(6):
        if cycle == 3:
            env.scale_service("X66", 3.0)  # the cell's largest E[D] lever
        runs = calls["runs"]
        report = mgr.run_cycle()
        assert report.cycle == cycle and not report.degraded
        assert len(mgr.history) == min(cycle + 1, 4) and mgr.history[-1] is report
        if report.acted:
            acted += 1
        else:
            healthy += 1
            assert calls["runs"] - runs == 1
    assert healthy and acted
    assert (calls["f"], calls["dag"], calls["plans"]) == (1, 1, 1)


def _slo_cycles(tmpdir, n_cycles=4):
    """``n_cycles`` eDiaMoND cycles under an SLO monitor with a budget
    tracker and a model registry, as perfbench's ``ediamond_mape`` sets
    them up.  With ``rng=0`` the loop acts on cycles 0-1 and is healthy
    on 2-3, so budgets are derived, blame is computed and the tracker
    judges a window."""
    from repro.core.manager import AutonomicManager, SLAPolicy
    from repro.obs.attribution import BudgetTracker
    from repro.obs.slo import SLOMonitor, manager_objectives
    from repro.serving.registry import ModelRegistry
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    policy = SLAPolicy(threshold=3.5, max_violation_prob=0.15)
    tracker = BudgetTracker(window=3)
    mgr = AutonomicManager(
        ediamond_scenario(),
        policy,
        window_points=250,
        rng=0,
        registry=ModelRegistry(tmpdir),
        slo_monitor=SLOMonitor(
            manager_objectives(policy), window=3, budget_tracker=tracker
        ),
    )
    for _ in range(n_cycles):
        yield mgr.run_cycle()
    assert tracker.allocation is not None and tracker.ranking()[0]["blame"] > 0


def test_slo_cycle_bookkeeping_contract(monkeypatch, tmp_path):
    """The SLO-monitored cycle's bookkeeping is array-at-a-time, counted.

    Per cycle the manager feeds each of its 7 measured streams (the
    response and 6 services) with one ``observe_many`` call and no
    per-value ``observe``; the monitor and the tracker read bucket
    counts, never a full ``summary()``.
    """
    from collections import Counter

    from repro.core.manager import AutonomicManager
    from repro.obs.attribution import BudgetTracker
    from repro.obs.metrics import Histogram
    from repro.obs.slo import SLOMonitor

    calls = Counter()
    scope = []

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            if scope:
                calls[scope[-1], key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def scoped(name, fn):
        def wrapper(*args, **kwargs):
            calls[name, "calls"] += 1
            scope.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                scope.pop()

        return wrapper

    for name in ("observe", "observe_many", "summary"):
        monkeypatch.setattr(
            Histogram, name, counting(name, getattr(Histogram, name))
        )
    for owner, name, key in [
        (AutonomicManager, "_feed_window_metrics", "feed"),
        (SLOMonitor, "evaluate", "evaluate"),
        (BudgetTracker, "observe", "tracker"),
    ]:
        monkeypatch.setattr(owner, name, scoped(key, getattr(owner, name)))

    for cycle, _ in enumerate(_slo_cycles(str(tmp_path)), start=1):
        assert calls["feed", "calls"] == cycle
        assert calls["feed", "observe_many"] == 7 * cycle
        assert calls["feed", "observe"] == 0
    assert calls["evaluate", "calls"] == 4 and calls["tracker", "calls"] >= 1
    assert calls["evaluate", "summary"] == calls["tracker", "summary"] == 0


def test_slo_cycles_do_not_import_scipy_stats(tmp_path):
    """``scipy.stats`` costs ~1 s to import; the loop's budget and blame
    layers use ``scipy.special`` only.  A fresh interpreter checks."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import runpy, sys\n"
        f"cycles = runpy.run_path({__file__!r})['_slo_cycles']\n"
        f"for _ in cycles({str(tmp_path)!r}):\n"
        "    pass\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
