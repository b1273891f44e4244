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
spec, host, delay stream and fault windows resolved once; the heap then
holds plain ``(t, seq, kind, payload)`` events, ``kind`` being one of
those compiled handlers.

Draw contract — the records and the generator's final state are a pure
function of the seed, and these rules fix them:

- *Demands.* With ``demand_sigma > 0`` the run first draws
  ``rng.normal(0, demand_sigma, size=n)``, one factor per transaction.
- *Arrivals.* Transaction ``i`` starts with one heap event at its
  arrival time; the starts are pushed in request order before the loop.
- *No arrive hop.* Entering an activity joins the service's FIFO queue
  when the (queueing) service is busy and otherwise begins service at
  once, inline.  Only a completion is a heap event.  A completion first
  starts the next queued job of its service, then continues the workflow.
- *Delay blocks.* Each service draws its base delays from blocks
  ``spec.delay.sample(rng, size=b)``, ``b`` = 32, 64, ..., 1024, then
  1024 for every later block.  A block is drawn when the service begins
  a job and its previous block is used up (the first block at its first
  job of the run); leftovers are discarded when the run ends.
- *Routing.* Every Choice and Loop of the run takes its uniforms, one
  per decision, from one shared stream of ``rng.random(b)`` blocks with
  the same sizes and refill rule.  A Choice takes branch
  ``bisect_right(cdf, u)``; a Loop repeats while ``u < continue_prob``.

Ties in time are broken by ``seq``, the order in which events were pushed.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import partial
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

#: Block sizes of every delay and routing stream: 32 doubling to 1024,
#: then 1024 for every later block.  A 120-point mixed80 window gives a
#: median service 56 jobs (0 to 3779).  Fixed blocks of 64 to 256 time
#: the same there and on 1000-point windows; fixed 1024 is ~20 % slower
#: on 120 points (2-core x86 host).  Blocks of 128 were not adopted: the
#: new streams flip ``tests/core/test_nrtbn.py``'s K2-vs-naive fixture
#: seed, a seed-luck loss K2 shows on 2-3 of 13 data seeds on any layout.
_BLOCK_SIZES = (32, 64, 128, 256, 512)
_BLOCK_MAX = 1024


def _block_stream(draw: Callable[[int], np.ndarray]) -> Callable[[], float]:
    """The next-value function of an endless stream of ``draw(b)`` blocks.

    Blocks are drawn lazily, at the first call after the previous block
    is used up.  The stream is built from C iterators only, so a run's
    leftover streams hold no suspended frames.
    """
    sizes = itertools.chain(_BLOCK_SIZES, itertools.repeat(_BLOCK_MAX))
    blocks = map(np.ndarray.tolist, map(draw, sizes))
    return itertools.chain.from_iterable(blocks).__next__


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
        self._delay_streams: list[list[Callable[[], float]]] = []
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
        self._delay_streams.clear()
        self.now = 0.0

    # ------------------------------------------------------------------ #
    # Compilation: one executor per workflow node, once per run
    # ------------------------------------------------------------------ #

    def _compile(
        self,
        node: WorkflowNode,
        done: _Step,
        joins: Iterator[int],
        uniform: Callable[[], float],
    ) -> _Step:
        """The entry step of ``node``; ``done`` runs when it completes.

        Continuations are static — what follows a node is fixed by its
        position in the workflow — so only the frame varies per
        transaction.  A Sequence chains its steps, a Parallel forks and
        AND-joins through its own frame slot, a Choice draws one branch,
        a Loop re-enters its body with ``continue_prob``; both take
        their uniforms from the run's shared routing stream ``uniform``.
        """
        if isinstance(node, Activity):
            return self._compile_activity(node.name, done)
        if isinstance(node, WfSequence):
            step = done
            for child in reversed(node.steps):
                step = self._compile(child, step, joins, uniform)
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

            forks = [self._compile(b, join, joins, uniform) for b in node.branches]

            def fork(t: float, frame: list, upstream: float) -> None:
                frame[slot] = [n, t, 0.0]
                for branch in forks:
                    branch(t, frame, upstream)

            return fork
        if isinstance(node, Choice):
            bounds = _choice_cdf(node.probabilities)
            options = [self._compile(b, done, joins, uniform) for b in node.branches]

            def choose(t: float, frame: list, upstream: float) -> None:
                options[bisect_right(bounds, uniform())](t, frame, upstream)

            return choose
        if isinstance(node, Loop):
            p = node.continue_prob
            body: _Step

            def again(t: float, frame: list, elapsed: float) -> None:
                if uniform() < p:
                    body(t, frame, elapsed)
                else:
                    done(t, frame, elapsed)

            body = self._compile(node.body, again, joins, uniform)
            return body
        raise SimulationError(f"unknown workflow node {type(node)!r}")

    def _compile_activity(self, name: str, done: _Step) -> _Step:
        """Enter/begin/complete handlers of one service, resolved once.

        A job is ``(frame, arrival time, upstream elapsed)``; it waits in
        the service's FIFO queue while the (queueing) service is busy and
        begins at once otherwise.
        """
        st = self._services[name]
        spec = st.spec
        hs = self._hosts[spec.host]
        # The compiled program is cyclic (begin and complete call each
        # other), so the stream sits in a holder that ``run`` empties:
        # its leftover block is then freed at once, not by the cycle
        # collector in the caller's next phase.
        delay = [_block_stream(partial(spec.delay.sample, self.rng))]
        self._delay_streams.append(delay)
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
            duration = delay[0]() / speed
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
            if queueing and busy:
                queue.append((frame, t, upstream))
            else:
                begin(t, (frame, t, upstream))

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

        uniform = _block_stream(self.rng.random)
        root = self._compile(
            self.workflow, _record_completion, itertools.count(1), uniform
        )
        n_joins = sum(isinstance(n, Parallel) for n in self.workflow.walk())

        def start(t: float, record: TransactionRecord) -> None:
            root(t, [record] + [None] * n_joins, 0.0)

        for record in records:
            self._schedule(record.arrival, start, record)
        heap = self._heap
        while heap:
            t, _, kind, payload = heapq.heappop(heap)
            self.now = t
            kind(t, payload)
        for holder in self._delay_streams:
            holder.clear()
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
