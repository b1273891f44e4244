"""The discrete-event simulation engine.

Each submitted request executes the workflow: an :class:`~repro.workflow.
constructs.Activity` is a job at a FIFO service queue, ``Sequence`` chains
completions, ``Parallel`` forks and AND-joins, ``Choice`` samples one
branch, ``Loop`` repeats geometrically.  Per-service *elapsed time*
(queueing wait + processing, exactly what a middleware monitoring point
measures) is accumulated per transaction, along with the end-to-end
response time — the ``(X_1..X_n, D)`` rows everything downstream learns
from.

The engine is event-driven over a single binary heap: requests
interleave correctly under queueing without threads, and a run is
deterministic given the RNG seed.  Each :meth:`Engine.run` first
compiles the workflow into one executor per node, with each service's
spec, host, delay sampler and fault windows resolved once; the heap then
holds plain ``(t, seq, kind, payload)`` events, ``kind`` being one of
those compiled handlers.  Events, their ``seq`` tie-breaks and the order
of generator draws are fixed by the workflow semantics, so the records
and the generator's final state are a pure function of the seed.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.simulator.faults import combined_factor
from repro.simulator.service import Host, ServiceSpec, _HostState, _ServiceState
from repro.utils.rng import ensure_rng
from repro.workflow.constructs import (
    Activity,
    Choice,
    Loop,
    Parallel,
    Sequence as WfSequence,
    WorkflowNode,
)


@dataclass
class TransactionRecord:
    """Everything monitored about one end-to-end transaction."""

    request_id: int
    arrival: float
    completion: float = float("nan")
    demand: float = 1.0
    elapsed: dict = field(default_factory=dict)
    invocations: dict = field(default_factory=dict)

    @property
    def response_time(self) -> float:
        return self.completion - self.arrival


#: A node's entry point and its continuation share one signature,
#: ``(t, frame, upstream_elapsed)``.  The frame is the transaction's
#: ``[record, join state of each Parallel...]``.
_Step = Callable[[float, list, float], None]
#: An event handler, called as ``kind(t, payload)`` when the event fires.
_Handler = Callable[[float, Any], None]


def _choice_cdf(probabilities: Sequence[float]) -> list[float]:
    """The CDF ``Generator.choice(n, p=p)`` searches, computed once.

    ``bisect_right(cdf, rng.random())`` then draws the index that
    ``choice`` would: numpy normalizes ``p.cumsum()`` by its last entry,
    takes one ``random()`` and searches it on the right.
    """
    cdf = np.asarray(probabilities, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _record_completion(t: float, frame: list, _elapsed: float) -> None:
    frame[0].completion = t


class Engine:
    """Workflow-driven discrete-event simulator."""

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
        self.faults = faults  # Optional FaultSchedule (see simulator.faults)
        if self.demand_sigma < 0:
            raise SimulationError("demand_sigma must be >= 0")

        self._services: dict[str, _ServiceState] = {}
        for spec in services:
            if spec.name in self._services:
                raise SimulationError(f"duplicate service {spec.name!r}")
            self._services[spec.name] = _ServiceState(spec=spec)
        missing = set(workflow.services()) - set(self._services)
        if missing:
            raise SimulationError(f"workflow services without specs: {sorted(missing)}")

        self._hosts: dict[str, _HostState] = {}
        for host in hosts or ():
            if host.name in self._hosts:
                raise SimulationError(f"duplicate host {host.name!r}")
            self._hosts[host.name] = _HostState(host=host)
        for st in self._services.values():
            if st.spec.host not in self._hosts:
                # Auto-create contention-free hosts for unplaced services.
                self._hosts.setdefault(
                    st.spec.host, _HostState(host=Host(st.spec.host))
                )

        self._heap: list[tuple[float, int, _Handler, Any]] = []
        self._seq = itertools.count()
        self.now = 0.0

    # ------------------------------------------------------------------ #
    # Event plumbing
    # ------------------------------------------------------------------ #

    def _schedule(self, t: float, kind: _Handler, payload: Any = None) -> None:
        if t < self.now - 1e-12:
            raise SimulationError(f"cannot schedule into the past ({t} < {self.now})")
        heapq.heappush(self._heap, (t, next(self._seq), kind, payload))

    def _reset(self) -> None:
        for st in self._services.values():
            st.reset()
        for hs in self._hosts.values():
            hs.reset()
        self._heap.clear()
        self.now = 0.0

    # ------------------------------------------------------------------ #
    # Compilation: one executor per workflow node, once per run
    # ------------------------------------------------------------------ #

    def _compile(self, node: WorkflowNode, done: _Step, joins: Iterator[int]) -> _Step:
        """The entry step of ``node``; ``done`` runs when it completes.

        Continuations are static — what follows a node is fixed by its
        position in the workflow — so only the frame varies per
        transaction.  A Sequence chains its steps, a Parallel forks and
        AND-joins through its own frame slot, a Choice draws one branch,
        a Loop re-enters its body with ``continue_prob``.
        """
        if isinstance(node, Activity):
            return self._compile_activity(node.name, done)
        if isinstance(node, WfSequence):
            step = done
            for child in reversed(node.steps):
                step = self._compile(child, step, joins)
            return step
        if isinstance(node, Parallel):
            slot = next(joins)
            n = len(node.branches)

            def join(t: float, frame: list, elapsed: float) -> None:
                state = frame[slot]  # [pending, latest finish, max elapsed]
                state[0] -= 1
                if t > state[1]:
                    state[1] = t
                if elapsed > state[2]:
                    state[2] = elapsed
                if not state[0]:
                    done(state[1], frame, state[2])

            forks = [self._compile(b, join, joins) for b in node.branches]

            def fork(t: float, frame: list, upstream: float) -> None:
                frame[slot] = [n, t, 0.0]
                for branch in forks:
                    branch(t, frame, upstream)

            return fork
        if isinstance(node, Choice):
            bounds = _choice_cdf(node.probabilities)
            options = [self._compile(b, done, joins) for b in node.branches]
            random = self.rng.random

            def choose(t: float, frame: list, upstream: float) -> None:
                options[bisect_right(bounds, random())](t, frame, upstream)

            return choose
        if isinstance(node, Loop):
            p = node.continue_prob
            random = self.rng.random
            body: _Step

            def again(t: float, frame: list, elapsed: float) -> None:
                if random() < p:
                    body(t, frame, elapsed)
                else:
                    done(t, frame, elapsed)

            body = self._compile(node.body, again, joins)
            return body
        raise SimulationError(f"unknown workflow node {type(node)!r}")

    def _compile_activity(self, name: str, done: _Step) -> _Step:
        """Arrive/begin/complete handlers of one service, resolved once.

        A job is ``(frame, arrival time, upstream elapsed)``; it waits in
        the service's FIFO queue while the (queueing) service is busy.
        """
        st = self._services[name]
        spec = st.spec
        hs = self._hosts[spec.host]
        sample = spec.delay.sample
        rng = self.rng
        speed = hs.host.speed
        contention = hs.host.contention
        sensitivity = spec.demand_sensitivity
        coupling = spec.upstream_coupling
        queueing = spec.queueing
        windows = self.faults.for_service(name) if self.faults is not None else ()
        schedule = self._schedule
        queue: deque = deque()
        busy = 0

        def begin(start: float, job: tuple) -> None:
            nonlocal busy
            duration = float(sample(rng)) / speed
            if sensitivity:
                duration *= job[0][0].demand ** sensitivity
            if contention:
                duration *= 1.0 + contention * hs.n_running
            if windows:
                duration *= combined_factor(windows, start)
            if coupling:
                duration += coupling * job[2]
            busy += 1
            hs.n_running += 1
            st.busy_time += duration
            schedule(start + duration, complete, job)

        def arrive(now: float, job: tuple) -> None:
            if queueing and busy:
                queue.append(job)
            else:
                begin(now, job)

        def complete(finish: float, job: tuple) -> None:
            nonlocal busy
            busy -= 1
            hs.n_running -= 1
            frame, t_arrive, _ = job
            elapsed = finish - t_arrive  # wait + service
            record = frame[0]
            record.elapsed[name] = record.elapsed.get(name, 0.0) + elapsed
            record.invocations[name] = record.invocations.get(name, 0) + 1
            if queue:
                begin(finish, queue.popleft())
            done(finish, frame, elapsed)

        def enter(t: float, frame: list, upstream: float) -> None:
            schedule(t, arrive, (frame, t, upstream))

        return enter

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #

    def run(self, arrival_times: Sequence[float]) -> list[TransactionRecord]:
        """Simulate one transaction per arrival time; returns all records.

        The run is cold-started (empty queues); callers wanting
        steady-state behaviour should discard a warm-up prefix.
        """
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

        root = self._compile(self.workflow, _record_completion, itertools.count(1))
        n_joins = sum(isinstance(n, Parallel) for n in self.workflow.walk())
        for record in records:
            root(record.arrival, [record] + [None] * n_joins, 0.0)
        heap = self._heap
        while heap:
            t, _, kind, payload = heapq.heappop(heap)
            self.now = t
            kind(t, payload)
        incomplete = [r for r in records if not np.isfinite(r.completion)]
        if incomplete:  # pragma: no cover - internal consistency guard
            raise SimulationError(f"{len(incomplete)} transactions never completed")
        return records

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def service_names(self) -> tuple[str, ...]:
        return tuple(self._services)

    def utilization(self, horizon: float) -> dict[str, float]:
        """Busy-time fraction per service over ``horizon`` (post-run)."""
        if not horizon > 0:
            raise SimulationError("horizon must be > 0")
        return {n: st.busy_time / horizon for n, st in self._services.items()}
