"""Callback-based reference engine (test-only oracle).

This is the discrete-event engine in its callback form: every activity
of every transaction builds a ``_Job`` and fresh closures, events are
lambdas on one binary heap, and a fault lookup builds a tuple per job.
It follows the draw contract written in :mod:`repro.simulator.engine`'s
docstring, implemented here from that text:

- demand factors first, one ``normal`` array per run;
- one start event per transaction at its arrival time, pushed in
  request order before the loop;
- an activity is entered inline: queue when its queueing service is
  busy, else begin at once; a completion starts the next queued job of
  its service before it continues the workflow;
- each service's base delays come from its own blocks of 32, 64, ...,
  1024, 1024, ... draws, refilled when a job begins and the block is
  used up; Choice and Loop share one ``random`` block stream of the
  same sizes; a Choice searches its normalized CDF on the right.

It shares no code with :mod:`repro.simulator.engine` and none with the
``sample`` methods of :mod:`repro.simulator.delays`: the block draws are
re-implemented below from the distributions' parameters.  The oracle
tests demand that the production engine reproduce its records, its
utilization and the generator state *exactly*.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.simulator import delays as dl
from repro.simulator.service import Host, ServiceSpec
from repro.utils.rng import ensure_rng
from repro.workflow.constructs import (
    Activity,
    Choice,
    Loop,
    Parallel,
    Sequence as WfSequence,
    WorkflowNode,
)


def reference_sample(dist, rng, size):
    """A block of ``size`` delay draws, re-derived from the parameters."""
    if isinstance(dist, dl.Exponential):
        return rng.exponential(dist.mean, size)
    if isinstance(dist, dl.LogNormal):
        return dist.median * np.exp(rng.normal(0.0, dist.sigma, size))
    if isinstance(dist, dl.Gamma):
        return rng.gamma(dist.shape, dist.scale, size)
    if isinstance(dist, dl.Uniform):
        return rng.uniform(dist.low, dist.high, size)
    if isinstance(dist, dl.Deterministic):
        return np.repeat(dist.value, size)
    if isinstance(dist, dl.MMk):
        service = rng.exponential(dist.service_mean, size)
        wait = rng.exponential(dist.conditional_wait_mean, size)
        queued = rng.random(size) < dist.p_wait
        return service + wait * queued
    if isinstance(dist, dl.GG1):
        if dist.scv_service == 0.0:
            service = np.repeat(dist.service_mean, size)
        else:
            shape = 1.0 / dist.scv_service
            service = rng.gamma(shape, dist.service_mean / shape, size)
        queued = rng.random(size) < dist.utilization
        if dist.wait_mean == 0.0:
            return service
        wait = rng.exponential(dist.wait_mean / dist.utilization, size)
        return service + wait * queued
    if isinstance(dist, dl.Scaled):
        return dist.factor * reference_sample(dist.base, rng, size)
    if isinstance(dist, dl.Shifted):
        return dist.offset + reference_sample(dist.base, rng, size)
    raise TypeError(f"no reference sampler for {type(dist)!r}")


class _Blocks:
    """Draws one value at a time from blocks of 32 doubling to 1024."""

    def __init__(self, draw: Callable[[int], np.ndarray]):
        self.draw = draw
        self.values = np.empty(0)
        self.used = 0
        self.next_size = 32

    def take(self) -> float:
        if self.used == len(self.values):
            self.values = self.draw(self.next_size)
            self.used = 0
            self.next_size = min(self.next_size * 2, 1024)
        self.used += 1
        return float(self.values[self.used - 1])


def reference_factor_at(schedule, service, t):
    """Combined fault factor, via a per-call tuple of active windows."""
    active = tuple(
        d
        for d in schedule.degradations
        if d.service == service and d.start <= t < d.end
    )
    factor = 1.0
    for d in active:
        factor *= d.factor
    return factor


@dataclass
class TransactionRecord:
    request_id: int
    arrival: float
    completion: float = float("nan")
    demand: float = 1.0
    elapsed: dict = field(default_factory=dict)
    invocations: dict = field(default_factory=dict)

    @property
    def response_time(self) -> float:
        return self.completion - self.arrival


@dataclass
class _ServiceState:
    spec: ServiceSpec
    free_at: float = 0.0
    n_jobs: int = 0
    busy_time: float = 0.0

    def reset(self) -> None:
        self.free_at = 0.0
        self.n_jobs = 0
        self.busy_time = 0.0


@dataclass
class _HostState:
    host: Host
    n_running: int = 0

    def reset(self) -> None:
        self.n_running = 0


@dataclass
class _Job:
    record: TransactionRecord
    t_arrive: float
    upstream_elapsed: float
    done: Callable[[float, float], None]


class ReferenceEngine:
    """Workflow-driven discrete-event simulator (callback reference)."""

    def __init__(
        self,
        workflow: WorkflowNode,
        services: Iterable[ServiceSpec],
        hosts: "Iterable[Host] | None" = None,
        demand_sigma: float = 0.0,
        rng=None,
        faults=None,
    ):
        workflow.validate()
        self.workflow = workflow
        self.rng = ensure_rng(rng)
        self.demand_sigma = float(demand_sigma)
        self.faults = faults
        if self.demand_sigma < 0:
            raise SimulationError("demand_sigma must be >= 0")

        self._services: dict[str, _ServiceState] = {}
        for spec in services:
            if spec.name in self._services:
                raise SimulationError(f"duplicate service {spec.name!r}")
            self._services[spec.name] = _ServiceState(spec=spec)
        missing = set(workflow.services()) - set(self._services)
        if missing:
            raise SimulationError(
                f"workflow services without specs: {sorted(missing)}"
            )

        self._hosts: dict[str, _HostState] = {}
        for host in hosts or ():
            if host.name in self._hosts:
                raise SimulationError(f"duplicate host {host.name!r}")
            self._hosts[host.name] = _HostState(host=host)
        for st in self._services.values():
            if st.spec.host not in self._hosts:
                self._hosts.setdefault(
                    st.spec.host, _HostState(host=Host(st.spec.host))
                )

        self._heap: list = []
        self._seq = itertools.count()
        self._queues: dict[str, list[_Job]] = {}
        self._busy: dict[str, int] = {}
        self.now = 0.0

    def _schedule(self, t: float, fn: Callable[[], None]) -> None:
        if t < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule into the past ({t} < {self.now})"
            )
        heapq.heappush(self._heap, (t, next(self._seq), fn))

    def _reset(self) -> None:
        for st in self._services.values():
            st.reset()
        for hs in self._hosts.values():
            hs.reset()
        self._heap.clear()
        self._queues = {name: [] for name in self._services}
        self._busy = {name: 0 for name in self._services}
        self._delays = {
            name: _Blocks(
                lambda size, dist=st.spec.delay: reference_sample(dist, self.rng, size)
            )
            for name, st in self._services.items()
        }
        self._routing = _Blocks(lambda size: self.rng.random(size))
        self.now = 0.0

    def _arrive(self, name: str, job: _Job) -> None:
        st = self._services[name]
        if st.spec.queueing and self._busy[name] > 0:
            self._queues[name].append(job)
        else:
            self._begin(name, job)

    def _begin(self, name: str, job: _Job) -> None:
        st = self._services[name]
        hs = self._hosts[st.spec.host]
        spec = st.spec
        start = self.now
        duration = self._delays[name].take() / hs.host.speed
        if spec.demand_sensitivity:
            duration *= job.record.demand ** spec.demand_sensitivity
        if hs.host.contention:
            duration *= 1.0 + hs.host.contention * hs.n_running
        if self.faults is not None:
            duration *= reference_factor_at(self.faults, name, start)
        if spec.upstream_coupling:
            duration += spec.upstream_coupling * job.upstream_elapsed
        finish = start + duration
        self._busy[name] += 1
        hs.n_running += 1
        st.busy_time += duration

        def complete() -> None:
            self._busy[name] -= 1
            hs.n_running -= 1
            elapsed = finish - job.t_arrive
            job.record.elapsed[name] = job.record.elapsed.get(name, 0.0) + elapsed
            job.record.invocations[name] = job.record.invocations.get(name, 0) + 1
            st.n_jobs += 1
            if st.spec.queueing and self._queues[name]:
                self._begin(name, self._queues[name].pop(0))
            job.done(finish, elapsed)

        self._schedule(finish, complete)

    def _exec(
        self,
        node: WorkflowNode,
        t: float,
        record: TransactionRecord,
        upstream: float,
        done: Callable[[float, float], None],
    ) -> None:
        if isinstance(node, Activity):
            job = _Job(record=record, t_arrive=t, upstream_elapsed=upstream, done=done)
            self._arrive(node.name, job)
        elif isinstance(node, WfSequence):
            steps = node.steps

            def run_step(i: int, t_i: float, up_i: float) -> None:
                if i == len(steps):
                    done(t_i, up_i)
                    return
                self._exec(
                    steps[i], t_i, record, up_i,
                    lambda ft, el: run_step(i + 1, ft, el),
                )

            run_step(0, t, upstream)
        elif isinstance(node, Parallel):
            n = len(node.branches)
            state = {"pending": n, "finish": t, "elapsed": 0.0}

            def join(ft: float, el: float) -> None:
                state["pending"] -= 1
                state["finish"] = max(state["finish"], ft)
                state["elapsed"] = max(state["elapsed"], el)
                if state["pending"] == 0:
                    done(state["finish"], state["elapsed"])

            for b in node.branches:
                self._exec(b, t, record, upstream, join)
        elif isinstance(node, Choice):
            cdf = np.cumsum(np.asarray(node.probabilities, dtype=float))
            cdf = cdf / cdf[-1]
            u = self._routing.take()
            i = int(np.searchsorted(cdf, u, side="right"))
            self._exec(node.branches[i], t, record, upstream, done)
        elif isinstance(node, Loop):
            def iteration(t_i: float, up_i: float) -> None:
                self._exec(
                    node.body, t_i, record, up_i,
                    lambda ft, el: (
                        iteration(ft, el)
                        if self._routing.take() < node.continue_prob
                        else done(ft, el)
                    ),
                )

            iteration(t, upstream)
        else:
            raise SimulationError(f"unknown workflow node {type(node)!r}")

    def run(self, arrival_times: Sequence[float]) -> list[TransactionRecord]:
        arrivals = np.asarray(list(arrival_times), dtype=float)
        if arrivals.size == 0:
            raise SimulationError("need at least one arrival")
        if np.any(arrivals < 0) or np.any(np.diff(arrivals) < 0):
            raise SimulationError("arrival times must be nonnegative and sorted")
        self._reset()
        records = [
            TransactionRecord(request_id=i, arrival=float(t))
            for i, t in enumerate(arrivals)
        ]
        if self.demand_sigma:
            demands = np.exp(
                self.rng.normal(0.0, self.demand_sigma, size=arrivals.size)
            )
            for r, d in zip(records, demands):
                r.demand = float(d)

        def make_done(record: TransactionRecord) -> Callable[[float, float], None]:
            def finish(ft: float, _el: float) -> None:
                record.completion = ft

            return finish

        for record in records:
            self._schedule(
                record.arrival,
                lambda record=record: self._exec(
                    self.workflow, record.arrival, record, 0.0, make_done(record)
                ),
            )
        while self._heap:
            t, _, fn = heapq.heappop(self._heap)
            self.now = t
            fn()
        incomplete = [r for r in records if not np.isfinite(r.completion)]
        if incomplete:
            raise SimulationError(f"{len(incomplete)} transactions never completed")
        return records

    def utilization(self, horizon: float) -> dict[str, float]:
        if not horizon > 0:
            raise SimulationError("horizon must be > 0")
        return {n: st.busy_time / horizon for n, st in self._services.items()}
