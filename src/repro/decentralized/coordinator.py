"""Server-side orchestration of decentralized parameter learning.

The coordinator plays the management server of Figure 1: it knows the
KERT-BN structure (cheap to hold centrally — "far more lightweight than
storing and computing the CPDs"), wires up parent→child channels,
triggers each agent's local fit, and assembles the finished CPDs into
the network.

Timing follows Section 4.3 exactly: the *decentralized* learning time of
a round is the **maximum** of the per-agent costs (agents run
concurrently in deployment) — where an agent's cost is its fit time
plus any delivery wait (channel delay, retry backoff); the
*centralized* reference is the **sum** of the fit times (one management
node doing everything, no network in the path).

Fault tolerance (the Section-5.1 "reporting failure is normal" stance):
``learn_round`` retries undelivered parent columns with exponential
backoff, enforces an optional per-agent fit timeout, and completes
*partial* rounds by substituting each troubled agent's last-known-good
CPD from :class:`~repro.decentralized.resilience.RoundState`.  The
result reports exactly which CPDs are fresh, stale, or failed — the
caller decides whether a degraded model is still serviceable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bn.cpd.base import CPD
from repro.bn.dag import DAG
from repro.bn.data import Dataset
from repro.decentralized.agent import CpdFitter, LearningAgent
from repro.decentralized.messaging import ChannelFaults, Network
from repro.decentralized.resilience import (
    FAILED,
    FRESH,
    STALE,
    NodeOutcome,
    RetryPolicy,
    RoundState,
)
from repro.exceptions import LearningError, ReproError
from repro.obs.runtime import OBS as _OBS


@dataclass
class DecentralizedResult:
    """Outcome of one decentralized learning round.

    ``network_summary`` covers **this round only** (per-round deltas
    from :meth:`~repro.decentralized.messaging.Network.round_summary`);
    cumulative traffic lives on the coordinator's network.  ``fresh`` /
    ``stale`` / ``failed`` partition the nodes by how their CPD was
    obtained; ``stale`` nodes carry their last-known-good CPD and
    ``failed`` nodes have no CPD in ``cpds`` at all.
    """

    cpds: dict
    per_agent_seconds: dict
    network_summary: dict
    response_cpd_seconds: float = 0.0
    per_agent_wait_seconds: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)  # node -> NodeOutcome
    round_index: int = 0

    @property
    def fresh(self) -> tuple:
        return tuple(n for n, o in self.outcomes.items() if o.status == FRESH)

    @property
    def stale(self) -> tuple:
        return tuple(n for n, o in self.outcomes.items() if o.status == STALE)

    @property
    def failed(self) -> tuple:
        return tuple(n for n, o in self.outcomes.items() if o.status == FAILED)

    @property
    def complete(self) -> bool:
        """Every node ended the round with a usable CPD (fresh or stale)."""
        return not self.failed

    @property
    def degraded(self) -> bool:
        """At least one CPD is not from this round's data."""
        return bool(self.stale or self.failed)

    @property
    def decentralized_seconds(self) -> float:
        """Max per-agent cost (fit + delivery wait) — concurrent wall clock."""
        if self.per_agent_seconds:
            base = max(
                secs + self.per_agent_wait_seconds.get(name, 0.0)
                for name, secs in self.per_agent_seconds.items()
            )
        else:
            base = 0.0
        # The response CPD (when learned) lives on the management server
        # and overlaps the agents' work only if it is cheap; it is added
        # because the server cannot finish before its own piece is done.
        return base + self.response_cpd_seconds

    @property
    def centralized_seconds(self) -> float:
        """Sum of all fit times — the single-node reference cost (no
        network waits: a central fit never messages)."""
        return sum(self.per_agent_seconds.values()) + self.response_cpd_seconds


class Coordinator:
    """Management server for decentralized parameter-learning rounds."""

    def __init__(
        self,
        dag: DAG,
        fitter: CpdFitter,
        response: "str | None" = None,
        response_fit: "Callable[[Dataset], tuple[CPD, float]] | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        faults: "ChannelFaults | None" = None,
        rng=None,
        strict: bool = False,
    ):
        self.dag = dag.copy()
        self.response = response
        self.response_fit = response_fit
        if response is not None and response not in dag:
            raise LearningError(f"response {response!r} not in structure")
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.strict = bool(strict)
        self.network = Network(faults=faults, rng=rng)
        self.state = RoundState()
        self.agents: dict[str, LearningAgent] = {}
        for node in dag.nodes:
            node = str(node)
            if node == response:
                continue  # the Eq.-4 CPD is knowledge-given / server-side
            parents = tuple(map(str, dag.parents(node)))
            self.agents[node] = LearningAgent(node, parents, fitter)

    # ------------------------------------------------------------------ #

    def distribute(self, data: Dataset) -> None:
        """Deliver local columns and ship parent columns over channels.

        ``data`` stands for the union of what each monitoring point
        collected this window; in deployment each agent already holds its
        own column and only the parent columns travel.  Channel faults
        (if configured) apply here: a dropped transfer simply leaves the
        agent's column missing for :meth:`learn_round`'s retry loop.
        """
        for name, agent in self.agents.items():
            agent.begin_round()
            if name in data:
                agent.collect_local(np.asarray(data[name], dtype=float))
        for name, agent in self.agents.items():
            for parent in agent.parents:
                if parent not in data:
                    continue  # nothing to ship; surfaces as a missing column
                for msg in self.network.transmit(
                    parent, name, parent, np.asarray(data[parent], dtype=float)
                ):
                    agent.receive(msg)

    def _retry_missing(self, agent: LearningAgent, data: Dataset) -> int:
        """Re-request undelivered parent columns with backoff.

        Returns the number of delivery attempts consumed (>= 1).  Only
        columns that exist in ``data`` are resendable; a column the
        monitoring layer never produced cannot be conjured by retrying.
        """
        attempt = 1
        while not agent.ready and attempt < self.retry_policy.max_attempts:
            resendable = [
                c for c in agent.missing if c != agent.service and c in data
            ]
            if not resendable:
                break
            attempt += 1
            agent.last_wait_seconds += self.retry_policy.backoff(attempt - 1)
            for parent in resendable:
                for msg in self.network.transmit(
                    parent, agent.service, parent,
                    np.asarray(data[parent], dtype=float),
                ):
                    agent.receive(msg)
        return attempt

    def _resolve_failure(self, node: str, attempts: int, error: str) -> NodeOutcome:
        """Stale fallback if a last-known-good CPD exists, else FAILED."""
        if self.strict:
            raise LearningError(f"agent {node!r} failed round: {error}")
        if self.state.fallback(node) is not None:
            return NodeOutcome(
                node=node,
                status=STALE,
                attempts=attempts,
                age=self.state.age_of(node) + 1,
                error=error,
            )
        return NodeOutcome(node=node, status=FAILED, attempts=attempts, error=error)

    def learn_round(self, data: Dataset) -> DecentralizedResult:
        """One full round: distribute (with retries), fit, assemble.

        Never aborts on a single agent's trouble (unless ``strict``):
        a node whose parent columns stay undelivered, whose fit raises,
        or whose fit overruns ``retry_policy.fit_timeout`` falls back to
        its last-known-good CPD and is reported ``stale`` (``failed`` if
        no earlier round ever produced one).

        When observability is on, the whole round runs inside a
        ``decentralized.round`` span that holds one ``agent:<node>``
        span per agent and carries the Sec.-3.4 accounted round time.
        """
        if not _OBS.enabled:
            return self._learn_round(data)
        with _OBS.tracer.span("decentralized.round") as round_span:
            result = self._learn_round(data)
            self._record_obs(result, round_span)
        return result

    def _learn_round(self, data: Dataset) -> DecentralizedResult:
        self.network.begin_round()
        self.distribute(data)
        cpds: dict[str, CPD] = {}
        per_agent: dict[str, float] = {}
        waits: dict[str, float] = {}
        outcomes: dict[str, NodeOutcome] = {}
        for name, agent in self.agents.items():
            attempts = self._retry_missing(agent, data)
            if not agent.ready:
                outcomes[name] = self._resolve_failure(
                    name,
                    attempts,
                    f"columns {agent.missing} undelivered after "
                    f"{attempts} attempt(s)",
                )
                per_agent[name] = 0.0
            else:
                try:
                    cpd = agent.learn()
                except ReproError as exc:
                    outcomes[name] = self._resolve_failure(
                        name, attempts, f"local fit failed: {exc}"
                    )
                    per_agent[name] = 0.0
                else:
                    timeout = self.retry_policy.fit_timeout
                    if timeout is not None and agent.last_fit_seconds > timeout:
                        outcomes[name] = self._resolve_failure(
                            name,
                            attempts,
                            f"fit took {agent.last_fit_seconds:.3f}s "
                            f"(> {timeout:.3f}s timeout)",
                        )
                        per_agent[name] = 0.0
                    else:
                        outcomes[name] = NodeOutcome(
                            node=name, status=FRESH, attempts=attempts
                        )
                        self.state.record_fresh(name, cpd)
                        per_agent[name] = agent.last_fit_seconds
                        cpds[name] = cpd
            waits[name] = agent.last_wait_seconds
            if outcomes[name].status == STALE:
                cpds[name] = self.state.fallback(name)
        response_secs = 0.0
        if self.response is not None:
            if self.response_fit is None:
                raise LearningError(
                    f"structure has response {self.response!r} but no "
                    "response_fit was provided"
                )
            try:
                cpd, response_secs = self.response_fit(data)
            except ReproError as exc:
                outcomes[self.response] = self._resolve_failure(
                    self.response, 1, f"response fit failed: {exc}"
                )
                fallback = self.state.fallback(self.response)
                if fallback is not None:
                    cpds[self.response] = fallback
            else:
                outcomes[self.response] = NodeOutcome(
                    node=self.response, status=FRESH
                )
                self.state.record_fresh(self.response, cpd)
                cpds[self.response] = cpd
        round_index = self.state.rounds_completed
        self.state.close_round(
            [n for n, o in outcomes.items() if o.status == FRESH]
        )
        return DecentralizedResult(
            cpds=cpds,
            per_agent_seconds=per_agent,
            network_summary=self.network.round_summary(),
            response_cpd_seconds=response_secs,
            per_agent_wait_seconds=waits,
            outcomes=outcomes,
            round_index=round_index,
        )

    def _record_obs(self, result: DecentralizedResult, round_span) -> None:
        """Publish one round's accounting to :mod:`repro.obs`.

        The round span carries the paper's Sec.-3.4 decentralized time —
        the **max** over per-agent costs (fit + delivery wait), plus the
        server-side response CPD — while each ``agent:<node>`` child
        carries that agent's own accounted cost.  Metrics mirror the
        :class:`DecentralizedResult` partition (fresh / stale / failed)
        plus retry counts so learning-health dashboards need no access
        to the result objects themselves.
        """
        m = _OBS.metrics
        m.counter("decentralized.rounds").inc()
        m.counter("decentralized.agents.fresh").inc(len(result.fresh))
        m.counter("decentralized.agents.stale").inc(len(result.stale))
        m.counter("decentralized.agents.failed").inc(len(result.failed))
        m.counter("decentralized.retries").inc(
            sum(max(0, o.attempts - 1) for o in result.outcomes.values())
        )
        m.gauge("decentralized.last_round.seconds").set(
            result.decentralized_seconds
        )
        m.gauge("decentralized.last_round.centralized_seconds").set(
            result.centralized_seconds
        )
        fit_hist = m.histogram("decentralized.agent_fit_seconds")
        tracer = _OBS.tracer
        round_span.annotate(round_index=result.round_index)
        for name, fit_secs in result.per_agent_seconds.items():
            outcome = result.outcomes.get(name)
            status = outcome.status if outcome is not None else FRESH
            if status == FRESH:
                fit_hist.observe(fit_secs)
            tracer.record_span(
                f"agent:{name}",
                fit_secs + result.per_agent_wait_seconds.get(name, 0.0),
            ).annotate(
                status=status,
                fit_seconds=fit_secs,
                wait_seconds=result.per_agent_wait_seconds.get(name, 0.0),
            )
        if self.response is not None:
            tracer.record_span(
                "response-cpd", result.response_cpd_seconds
            ).annotate(node=self.response)
        # Accounted concurrency, not sequential wall clock: the round
        # took as long as its slowest agent (Sec. 3.4).
        round_span.override_duration(result.decentralized_seconds)
