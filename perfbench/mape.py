"""The two MAPE-loop workloads: ``ediamond_mape`` and ``mixed80_mape``.

A run is a sequence of seeded episodes.  Each episode restores every
service to its baseline delay, runs a few healthy cycles, degrades one
seeded victim by a seeded factor through ``scale_service`` and runs a
few more cycles.  The first ``episodes`` episodes form the decision
schedule: they always run in full, and every decision metric is scored
on them alone, so those metrics depend on the seed and nothing else.
Further episodes run until the time budget is spent and only add
timing samples.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import reference
from repro.core.manager import AutonomicManager, SLAPolicy
from repro.simulator.environment import SimulatedEnvironment

EDIAMOND_SLA_S = 3.5
MAX_VIOLATION = 0.15
#: Corpus seed of the 80-service cell, fixed so every benchmark seed
#: runs against the same topology.
MIXED80_SCENARIO_SEED = 20260808
#: A mixed80 victim is degraded until its injected slowdown shifts the
#: calibration window's mean response by this many standard deviations.
MIXED80_SHIFT_SD = 1.2


@dataclass(frozen=True)
class Schedule:
    healthy: int       # cycles per episode before the injection
    post: int          # cycles per episode after it
    episodes: int      # episodes in the decision schedule
    warmup: int        # healthy cycles run as part of set-up
    setups: int        # set-ups per run; set-up time is their median


SCHEDULES = {
    "ediamond_mape": Schedule(healthy=3, post=5, episodes=15, warmup=3, setups=9),
    "mixed80_mape": Schedule(healthy=5, post=2, episodes=15, warmup=2, setups=7),
}


@dataclass(frozen=True)
class Plan:
    """What a seed fixes before set-up: the SLA and the injections."""

    sla: float
    factors: dict           # victim -> (low, high) degradation factor

    @property
    def victims(self) -> tuple:
        return tuple(sorted(self.factors))


@dataclass
class Loop:
    """One autonomic loop as set up, plus the benchmark's view of it."""

    env: SimulatedEnvironment
    manager: AutonomicManager
    plan: Plan
    baseline: tuple = ()
    baseline_mean: dict = field(default_factory=dict)
    scales: dict = field(default_factory=dict)
    sim_s: float = 0.0      # seconds spent inside env.simulate
    last_window: object = None

    def __post_init__(self) -> None:
        self.baseline = self.env.services
        self.baseline_mean = {s.name: s.delay.mean for s in self.baseline}
        self.scales = {name: 1.0 for name in self.baseline_mean}
        env = self.env

        def timed_simulate(*args, **kwargs):
            # Resolved through the class at call time, so a traced run's
            # wrapper on SimulatedEnvironment.simulate sits underneath.
            start = time.perf_counter()
            data = SimulatedEnvironment.simulate(env, *args, **kwargs)
            self.sim_s += time.perf_counter() - start
            self.last_window = data
            return data

        env.simulate = timed_simulate

    def scale_errors(self) -> list:
        """Services whose live delay differs from baseline x applied scale."""
        bad = []
        for spec in self.env.services:
            want = self.baseline_mean[spec.name] * self.scales[spec.name]
            if not math.isclose(spec.delay.mean, want, rel_tol=1e-9):
                bad.append(spec.name)
        return bad

    def restore_baseline(self) -> None:
        # Assigning the baseline specs back (rather than scaling by the
        # inverse factor) keeps the delay objects unnested, so sampling
        # cost stays the same in every episode.
        self.env.services = self.baseline
        self.scales = {name: 1.0 for name in self.scales}


def _rngs(seed: int, workload: str) -> dict:
    tag = sum(workload.encode())
    children = np.random.SeedSequence([int(seed), tag]).spawn(3)
    return {
        "manager": np.random.default_rng(children[0]),
        "calibration": np.random.default_rng(children[1]),
        "episodes": np.random.default_rng(children[2]),
    }


def _ediamond_plan(rng) -> Plan:
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    return Plan(EDIAMOND_SLA_S, {v: (2.0, 3.0) for v in ediamond_scenario().service_names})


def _ediamond(plan: Plan, rngs: dict, tmpdir: str) -> Loop:
    from repro.obs.attribution import BudgetTracker
    from repro.obs.slo import SLOMonitor, manager_objectives
    from repro.serving.registry import ModelRegistry
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    env = ediamond_scenario()
    policy = SLAPolicy(threshold=plan.sla, max_violation_prob=MAX_VIOLATION)
    manager = AutonomicManager(
        env,
        policy,
        window_points=250,
        rng=rngs["manager"],
        registry=ModelRegistry(tmpdir),
        slo_monitor=SLOMonitor(
            manager_objectives(policy),
            window=3,
            budget_tracker=BudgetTracker(window=3),
        ),
    )
    return Loop(env, manager, plan)


def _factor_for_shift(f, columns: dict, service: str, shift: float) -> "float | None":
    """Smallest factor (to 1 %) that moves mean f(window) by ``shift``."""
    base = float(np.mean(f(columns)))

    def moved(k: float) -> float:
        scaled = dict(columns)
        scaled[service] = columns[service] * k
        return float(np.mean(f(scaled))) - base

    lo, hi = 1.0, 8.0
    if moved(hi) < shift:
        return None
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if moved(mid) < shift else (lo, mid)
    return hi


def _mixed80_env() -> SimulatedEnvironment:
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    spec = ScenarioSpec("mixed", 80, "gg1", arrivals="diurnal", failure_storm=True)
    return build_scenario(spec, seed=MIXED80_SCENARIO_SEED).env


def _mixed80_plan(rng) -> Plan:
    env = _mixed80_env()
    calibration = env.simulate(120, rng=rng)
    d = np.asarray(calibration[env.response], dtype=float)
    sla = float(np.quantile(d, 0.9))
    f = env.response_time_function()
    columns = {s: np.asarray(calibration[s], dtype=float) for s in env.service_names}
    factors = {}
    for service in env.service_names:
        k = _factor_for_shift(f, columns, service, MIXED80_SHIFT_SD * float(np.std(d)))
        if k is not None:
            factors[service] = (k, 1.25 * k)
    return Plan(sla, factors)


def _mixed80(plan: Plan, rngs: dict, tmpdir: str) -> Loop:
    env = _mixed80_env()
    policy = SLAPolicy(threshold=plan.sla, max_violation_prob=MAX_VIOLATION)
    manager = AutonomicManager(env, policy, window_points=120, rng=rngs["manager"])
    return Loop(env, manager, plan)


PLANS = {"ediamond_mape": _ediamond_plan, "mixed80_mape": _mixed80_plan}
SETUPS = {"ediamond_mape": _ediamond, "mixed80_mape": _mixed80}


def make_plan(workload: str, seed: int) -> Plan:
    """The seed's SLA and injections; deterministic, and not timed."""
    return PLANS[workload](_rngs(seed, workload)["calibration"])


def setup(workload: str, seed: int, plan: Plan, tmpdir: str) -> Loop:
    """Build the loop and run its warm-up cycles (the timed set-up)."""
    from repro.obs import runtime

    # The SLO monitor reads the process-global metrics registry.
    runtime.reset()
    loop = SETUPS[workload](plan, _rngs(seed, workload), tmpdir)
    for _ in range(SCHEDULES[workload].warmup):
        report = loop.manager.run_cycle()
        if report.acted:
            target, speedup = report.action
            loop.scales[target] *= speedup
    loop.sim_s = 0.0
    return loop


def draw_injection(loop: Loop, rng) -> tuple:
    victims = loop.plan.victims
    victim = victims[int(rng.integers(len(victims)))]
    low, high = loop.plan.factors[victim]
    return victim, float(rng.uniform(low, high))


def run_episode(loop: Loop, schedule: Schedule, episode: int, injection, records, errors) -> None:
    bad = loop.scale_errors()
    if bad:
        errors.append(f"episode {episode}: live delays of {bad} differ from the applied scales")
    loop.restore_baseline()
    victim, factor = injection
    policy = loop.manager.policy
    names = set(loop.env.service_names)
    for index in range(schedule.healthy + schedule.post):
        post = index >= schedule.healthy
        if index == schedule.healthy:
            loop.env.scale_service(victim, factor)
            loop.scales[victim] *= factor
        ref_s = reference.job_seconds()
        sim_before = loop.sim_s
        start = time.perf_counter()
        report = loop.manager.run_cycle()
        cycle_s = time.perf_counter() - start
        target, speedup = report.action if report.acted else (None, None)
        if report.acted:
            if target not in names or speedup not in policy.candidate_speedups:
                errors.append(f"episode {episode}: invalid action {report.action!r}")
            else:
                loop.scales[target] *= speedup
        if not report.degraded and not 0.0 <= report.violation_prob <= 1.0:
            errors.append(f"episode {episode}: violation_prob {report.violation_prob!r}")
        d = np.asarray(loop.last_window[loop.env.response], dtype=float)
        d = d[np.isfinite(d)]
        records.append(
            {
                "episode": episode,
                "post": post,
                "victim": victim if post else None,
                "target": target,
                "speedup": speedup,
                "trigger": report.trigger,
                "degraded": report.degraded,
                "p_hat": report.projected_violation_prob if report.acted else report.violation_prob,
                "window_share": float(np.mean(d > loop.plan.sla)) if d.size else float("nan"),
                "cycle_s": cycle_s,
                "decide_s": cycle_s - (loop.sim_s - sim_before),
                "ref_s": ref_s,
            }
        )


def run(workload: str, seed: int, seconds: float, tmpdir: str, extend: bool = True, setups: "int | None" = None, around=contextlib.nullcontext):
    """Set up ``setups`` times (default: the schedule's) and keep the last
    loop; then, inside ``around()``, run the decision schedule and, with
    ``extend``, extra episodes until ``seconds`` have passed."""
    schedule = SCHEDULES[workload]
    plan = make_plan(workload, seed)
    setup_times = []
    setup_raw = []
    for i in range(setups or schedule.setups):
        loop, scaled, raw = reference.host_seconds(
            lambda: setup(workload, seed, plan, os.path.join(tmpdir, f"registry-{i}"))
        )
        setup_times.append(scaled)
        setup_raw.append(raw)
    rng = _rngs(seed, workload)["episodes"]
    records: list = []
    errors: list = []
    with around():
        deadline = time.perf_counter() + seconds
        episode = 0
        while episode < schedule.episodes or (extend and time.perf_counter() < deadline):
            run_episode(loop, schedule, episode, draw_injection(loop, rng), records, errors)
            episode += 1
    if loop.scale_errors():
        errors.append(f"after the last episode: live delays of {loop.scale_errors()} differ from the applied scales")
    return {
        "setup_s": float(np.median(setup_times)),
        "setup_raw_s": float(np.median(setup_raw)),
        "records": records,
        "scheduled": [r for r in records if r["episode"] < schedule.episodes],
        "errors": errors,
        "loop": loop,
    }


def decisions(records) -> list:
    """The decision log compared between traced and untraced runs."""
    return [(r["target"], r["speedup"], r["trigger"]) for r in records]


def decision_metrics(scheduled, schedule: Schedule) -> dict:
    by_episode: dict = {}
    for r in scheduled:
        by_episode.setdefault(r["episode"], []).append(r)
    hits = acted_on = 0
    pre = [r for r in scheduled if not r["post"]]
    for cycles in by_episode.values():
        first = next((r for r in cycles if r["post"] and r["target"] is not None), None)
        if first is not None:
            acted_on += 1
            hits += first["target"] == first["victim"]
    errs = []
    for cycles in by_episode.values():
        for k in range(len(cycles) - 1):
            a, b = cycles[k], cycles[k + 1]
            if a["post"] != b["post"] or a["degraded"] or b["degraded"]:
                continue  # an injection lies between the two windows
            errs.append(abs(a["p_hat"] - b["window_share"]))
    return {
        "target_hit_share": hits / acted_on if acted_on else float("nan"),
        "acted_on_injections": acted_on,
        "false_action_share": sum(r["target"] is not None for r in pre) / len(pre),
        "violation_abs_err": float(np.mean(errs)),
        "violation_pairs": len(errs),
        "failed_cycle_share": sum(r["degraded"] for r in scheduled) / len(scheduled),
    }
