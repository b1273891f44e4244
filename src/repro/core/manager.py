"""A minimal autonomic manager closing the paper's loop.

The paper positions KERT-BN as the model that "autonomous management
software … requires" for "resource provisioning, load balancing, and
performance problem localization and remediation".  This module wires
the pieces of this library into that loop, MAPE-K style:

- **Monitor** — pull a window of monitored data from the environment;
- **Analyze** — refit the KERT-BN's CPDs on the window (Eqs. 1–2
  schedule; the workflow knowledge — ``f``, the DAG and the fitting
  layout — is derived once, at construction) and assess the
  SLA-violation probability with the rapid analytic assessor;
- **Plan** — when the violation probability exceeds the policy bound,
  localize the most-blamed service and project candidate accelerations
  with pAccel to pick the cheapest sufficient one;
- **Execute** — apply the chosen speedup to the (simulated) environment.

The manager is deliberately simple — it demonstrates integration, not a
new control algorithm — but every decision it takes is driven by the
paper's machinery and is fully inspectable via :class:`CycleReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.localization import ProblemLocalizer
from repro.core.kertbn import KERTBN, build_continuous_kertbn, derive_knowledge
from repro.exceptions import ReproError
from repro.obs.runtime import OBS as _OBS
from repro.obs.runtime import span as _span
from repro.simulator.environment import SimulatedEnvironment
from repro.utils.rng import ensure_rng

#: Reports :attr:`AutonomicManager.history` keeps; each pins its model,
#: so an unbounded history grows the heap (and the collector's work)
#: with every cycle.
HISTORY_LIMIT = 64


@dataclass(frozen=True)
class SLAPolicy:
    """The service-level objective the manager defends."""

    threshold: float          # response-time bound (seconds)
    max_violation_prob: float  # tolerated P(D > threshold)
    candidate_speedups: tuple = (0.9, 0.75, 0.5)

    def __post_init__(self) -> None:
        if not self.threshold > 0:
            raise ReproError("SLA threshold must be > 0")
        if not 0.0 < self.max_violation_prob < 1.0:
            raise ReproError("max_violation_prob must be in (0, 1)")
        if not self.candidate_speedups or any(
            not 0 < s < 1 for s in self.candidate_speedups
        ):
            raise ReproError("candidate speedups must lie in (0, 1)")


@dataclass
class CycleReport:
    """Everything one manage cycle observed and decided.

    ``degraded`` marks a cycle whose model rebuild failed (learning
    error, all-NaN window): the manager fell back to the last healthy
    reference model — or, lacking one, to no model at all — recorded the
    ``incident``, and took no action.  The loop itself never crashes.
    A tripwire rollback, or an incumbent that could not be loaded or
    scored, is also named in ``incident`` without marking the cycle
    degraded: a model was rebuilt and one is serving.
    """

    cycle: int
    violation_prob: float
    expected_response: float
    action: "tuple[str, float] | None" = None
    projected_violation_prob: "float | None" = None
    suspects: list = field(default_factory=list)
    model: "KERTBN | None" = None
    degraded: bool = False
    incident: "str | None" = None
    # Serving-layer outcomes (defaults keep pre-serving callers working).
    quarantined: bool = False            # window refused by the quality gate
    window_verdict: object = None        # the gate's WindowVerdict, if gated
    published_version: "int | None" = None  # registry version this cycle made
    rolled_back: bool = False            # accuracy tripwire reverted it
    # Observability-layer outcomes (PR 5): measured-SLO breaches seen
    # this cycle and which trigger(s) caused the action taken.
    slo_breaches: list = field(default_factory=list)
    trigger: "str | None" = None         # "model" | "slo" | "model+slo"
    # Budget attribution (PR 10): the ranked budget-eater table from the
    # attached BudgetTracker at decision time — rows of service /
    # allocated / consumed / burn_rate / blame / breached.  When an
    # action was taken on a breached budget, the targeted service is
    # the first breached row.
    attribution: list = field(default_factory=list)

    @property
    def acted(self) -> bool:
        return self.action is not None


class AutonomicManager:
    """Monitor → analyze → plan → execute over a simulated environment.

    ``history`` holds the last :data:`HISTORY_LIMIT` reports;
    :meth:`run_cycle` and :meth:`run` return every report, and
    ``report.cycle`` keeps counting past the bound.
    """

    def __init__(
        self,
        environment: SimulatedEnvironment,
        policy: SLAPolicy,
        window_points: int = 300,
        rng=None,
        registry=None,
        quality_gate=None,
        tripwire_max_regression: float = 0.5,
        slo_monitor=None,
    ):
        """``registry`` (a :class:`repro.serving.ModelRegistry`) makes
        every healthy rebuild a published version, checked by an
        accuracy tripwire that auto-rolls back regressions;
        ``quality_gate`` (a :class:`repro.serving.DataQualityGate`)
        screens each monitoring window before it reaches learning —
        refused windows become degraded, quarantined cycles;
        ``slo_monitor`` (a :class:`repro.obs.slo.SLOMonitor`) is
        evaluated once per cycle on the measured window stream — its
        breaches trigger the plan/execute phases even when the model's
        predicted violation probability is still inside policy."""
        if window_points < 10:
            raise ReproError("window_points must be >= 10")
        self.env = environment
        self.policy = policy
        self.window_points = int(window_points)
        self.rng = ensure_rng(rng)
        self.registry = registry
        self.quality_gate = quality_gate
        self.slo_monitor = slo_monitor
        self._tripwire = None
        if registry is not None:
            from repro.serving.quality import AccuracyTripwire

            self._tripwire = AccuracyTripwire(
                registry, max_regression=tripwire_max_regression
            )
        self.history: list[CycleReport] = []
        self._cycles = 0
        # f, the DAG and the CPD fitting layout depend on the workflow
        # only; every window refits just the CPDs.
        self._knowledge = derive_knowledge(environment.workflow, environment.response)
        # Localization compares *current* observations against the last
        # model built while the SLA held — a freshly rebuilt model already
        # reflects the fault and would show nothing anomalous.  Violating
        # and degraded cycles read that model's cached assessor, so its
        # joint Gaussian and evidence-free sweep are never re-derived.
        self._reference_model: "KERTBN | None" = None

    # ------------------------------------------------------------------ #

    def _degraded_report(self, cycle: int, incident: str) -> CycleReport:
        """Survive a failed analyze step: reuse the last healthy model's
        assessment (or report no estimate at all), record the incident,
        take no action, and let the next cycle try again."""
        if self._reference_model is not None:
            assessor = self._reference_model.assessor
            expected, _ = assessor.assess()
            p_violation = assessor.violation_probability(self.policy.threshold)
        else:
            expected = float("nan")
            p_violation = float("nan")
        report = CycleReport(
            cycle=cycle,
            violation_prob=p_violation,
            expected_response=expected,
            model=self._reference_model,
            degraded=True,
            incident=incident,
        )
        self._record(report)
        return report

    def _record(self, report: CycleReport) -> None:
        self.history.append(report)
        if len(self.history) > HISTORY_LIMIT:
            del self.history[0]

    def _unlearnable(self, data) -> "str | None":
        """A window no rebuild can survive: some column has no finite data.

        The columns are joined end to end: one contiguous copy, several
        times cheaper than stacking them into a matrix, which only the
        rebuild's design needs.
        """
        names = (*self.env.service_names, self.env.response)
        flat = np.concatenate([data[name] for name in names])
        finite = np.isfinite(flat).reshape(len(names), data.n_rows).any(axis=1)
        if finite.all():
            return None
        name = names[int(np.argmin(finite))]
        return f"column {name!r} has no finite values in the window"

    def run_cycle(self) -> CycleReport:
        """Execute one full MAPE cycle; mutates the environment if acting.

        A failed model rebuild never crashes the loop: the cycle is
        recorded as degraded (see :meth:`_degraded_report`) and the
        manager resumes on the next window.

        When :mod:`repro.obs` is enabled the cycle emits a
        ``manager.cycle`` span with one child per MAPE phase (monitor /
        quality-gate / analyze / publish / plan / execute) plus cycle,
        quarantine, rollback, and action counters.
        """
        _t0 = _OBS.clock() if _OBS.enabled else None
        with _span("manager.cycle") as cycle_span:
            report = self._run_cycle()
        if _t0 is not None:
            cycle_span.annotate(cycle=report.cycle, degraded=report.degraded)
            if report.trigger is not None:
                cycle_span.annotate(trigger=report.trigger)
            m = _OBS.metrics
            m.counter("manager.cycles").inc()
            m.histogram("manager.cycle.seconds").observe(_OBS.clock() - _t0)
            if report.degraded:
                m.counter("manager.degraded_cycles").inc()
            if report.quarantined:
                m.counter("manager.quarantined_windows").inc()
            if report.rolled_back:
                m.counter("manager.rollbacks").inc()
            if report.acted:
                m.counter("manager.actions").inc()
            if np.isfinite(report.violation_prob):
                m.gauge("manager.last_violation_prob").set(
                    report.violation_prob
                )
        return report

    def _feed_window_metrics(self, data) -> None:
        """Publish the monitored window's measured response stream into
        the metrics registry — the stream the SLO monitor (and any
        scraper) judges.  Violations here are *measured* SLA overruns,
        independent of anything a model predicts."""
        m = _OBS.metrics
        resp = np.asarray(data[self.env.response], dtype=float)
        finite = resp[np.isfinite(resp)]
        m.histogram("manager.window.response_seconds").observe_many(finite)
        m.counter("manager.window.points").inc(int(finite.size))
        m.counter("manager.window.violations").inc(
            int(np.count_nonzero(finite > self.policy.threshold))
        )
        tracker = self._budget_tracker()
        if tracker is not None:
            # Per-service measured streams for budget-burn tracking;
            # finer buckets than the registry default because burn
            # compares a windowed percentile against a bound that may
            # sit only ~20 % above the healthy level.
            from repro.obs.attribution import BUDGET_STREAM_BUCKETS

            for service in self.env.service_names:
                col = np.asarray(data[service], dtype=float)
                m.histogram(
                    tracker.stream_name(service),
                    buckets=BUDGET_STREAM_BUCKETS,
                ).observe_many(col[np.isfinite(col)])

    def _budget_tracker(self):
        """The BudgetTracker riding the attached SLO monitor, if any."""
        return getattr(self.slo_monitor, "budget_tracker", None)

    def _refresh_budgets(self, model) -> None:
        """(Re)derive per-service budgets from a healthy published model.

        Called only on non-acting cycles — budgets must come from a
        model of the system *meeting* its SLO, or a degradation would
        stretch its own budget and hide inside it.  Amortized per model
        publish, never per query/scrape.
        """
        tracker = self._budget_tracker()
        if tracker is None:
            return
        from repro.bn.budgets import derive_budgets

        with _span("manager.budgets"):
            try:
                allocation = derive_budgets(
                    model,
                    sla=self.policy.threshold,
                    target=self.policy.max_violation_prob,
                )
            except ReproError:
                return  # e.g. a model without an invertible f
            tracker.update_allocation(allocation)
        if _OBS.enabled:
            _OBS.metrics.counter("manager.budget_derivations").inc()

    def _refresh_blame(self, model) -> None:
        """Posterior blame ``P(X_i > b_i | D > sla)`` from *this* cycle's
        fresh model against the standing budgets — the fresh model
        reflects any degradation, so blame points at the culprit even
        while the budgets still describe the healthy reference."""
        tracker = self._budget_tracker()
        if tracker is None or tracker.allocation is None:
            return
        tracker.update_blame(
            model.assessor.blame(
                tracker.allocation.as_mapping(), self.policy.threshold
            )
        )

    def _evaluate_slo(self, data) -> list:
        """Feed the window stream and run one SLO-monitor interval."""
        if self.slo_monitor is None and not _OBS.enabled:
            return []
        self._feed_window_metrics(data)
        if self.slo_monitor is None:
            return []
        with _span("manager.slo"):
            breaches = self.slo_monitor.evaluate()
        if breaches and _OBS.enabled:
            _OBS.metrics.counter("manager.slo_breach_cycles").inc()
        return breaches

    def _run_cycle(self) -> CycleReport:
        cycle = self._cycles
        self._cycles += 1
        # Monitor: fresh window from the live environment.
        with _span("manager.monitor"):
            data = self.env.simulate(self.window_points, rng=self.rng)
        # The measured stream is judged before anything model-driven:
        # an SLO breach must surface even on cycles whose analyze step
        # degrades (those are exactly the cycles where the measured
        # trigger is the only one left).
        breaches = self._evaluate_slo(data)
        # Quality gate: a poisoned window is quarantined before it can
        # corrupt the rebuild — the cycle degrades instead of learning.
        verdict = None
        if self.quality_gate is not None:
            with _span("manager.quality_gate"):
                verdict = self.quality_gate.inspect(data)
            if not verdict.accepted:
                report = self._degraded_report(
                    cycle,
                    "window quarantined: " + "; ".join(verdict.reasons),
                )
                report.quarantined = True
                report.window_verdict = verdict
                report.slo_breaches = list(breaches)
                return report
        # Analyze: rebuild the model (reconstruction, not update) + assess.
        incident = self._unlearnable(data)
        if incident is not None:
            report = self._degraded_report(cycle, incident)
            report.slo_breaches = list(breaches)
            return report
        try:
            with _span("manager.analyze"):
                if self._knowledge.workflow is not self.env.workflow:
                    self._knowledge = derive_knowledge(
                        self.env.workflow, self.env.response
                    )
                model = build_continuous_kertbn(self._knowledge, data)
                assessor = model.assessor
                expected, _ = assessor.assess()
                p_violation = assessor.violation_probability(
                    self.policy.threshold
                )
        except (ReproError, FloatingPointError, ValueError) as exc:
            report = self._degraded_report(
                cycle, f"model rebuild failed: {exc}"
            )
            report.slo_breaches = list(breaches)
            return report
        self._refresh_blame(model)
        report = CycleReport(
            cycle=cycle,
            violation_prob=p_violation,
            expected_response=expected,
            model=model,
            window_verdict=verdict,
            slo_breaches=list(breaches),
        )
        tracker = self._budget_tracker()
        if tracker is not None and tracker.allocation is not None:
            report.attribution = tracker.ranking()
        if self._tripwire is not None:
            with _span("manager.publish"):
                outcome = self._tripwire.publish_checked(
                    model, data, metadata={"cycle": cycle}
                )
            report.published_version = outcome.version
            report.rolled_back = outcome.rolled_back
            if outcome.rolled_back:
                report.incident = (
                    f"published v{outcome.version} rolled back: "
                    f"{outcome.detail}"
                )
            elif outcome.detail:  # incumbent unusable; the new model serves
                report.incident = outcome.detail
        model_trigger = p_violation > self.policy.max_violation_prob
        if model_trigger or breaches:
            report.trigger = (
                "model+slo" if model_trigger and breaches
                else ("model" if model_trigger else "slo")
            )
            with _span("manager.plan"):
                target, chosen = self._plan_action(model, data, report)
            # Execute: apply the resource action to the environment.
            with _span("manager.execute"):
                self._apply_speedup(target, chosen[0])
            report.action = (target, chosen[0])
            report.projected_violation_prob = chosen[1]
        else:
            self._reference_model = model
            self._refresh_budgets(model)
        self._record(report)
        return report

    def _plan_action(self, model, data, report):
        """Plan phase: blame ranking against the last healthy model (the
        fresh one until a cycle is healthy), then the *mildest* sufficient
        speedup projected on the fresh model.  Returns ``(target,
        (speedup, projected_violation_prob))`` and records suspects on
        ``report``."""
        reference = model if self._reference_model is None else self._reference_model
        observed = {
            s: float(np.mean(data[s])) for s in self.env.service_names
        }
        suspects = ProblemLocalizer(reference).localize(observed)
        report.suspects = [s.row() for s in suspects[:3]]
        target = suspects[0].service
        # A breached per-service budget is the sharper signal: it names
        # the service measurably eating the end-to-end allocation, so
        # the action targets it directly instead of the global ranking.
        budget_breaches = [
            b
            for b in report.slo_breaches
            if getattr(b, "kind", None) == "budget"
            and getattr(b, "service", None) in self.env.service_names
        ]
        if budget_breaches:
            budget_breaches.sort(key=lambda b: -float(b.burn_rate))
            target = budget_breaches[0].service
        current_mean = float(np.mean(data[target]))
        # Mildest first; when even the strongest (last) candidate is
        # insufficient, take it anyway (best effort) and record the
        # residual risk.
        for speedup in sorted(self.policy.candidate_speedups, reverse=True):
            projected = model.assessor.violation_probability(
                self.policy.threshold, {target: speedup * current_mean}
            )
            if projected <= self.policy.max_violation_prob:
                break
        return target, (speedup, projected)

    def run(self, n_cycles: int) -> list[CycleReport]:
        if n_cycles < 1:
            raise ReproError("need >= 1 cycle")
        return [self.run_cycle() for _ in range(n_cycles)]

    # ------------------------------------------------------------------ #

    def _apply_speedup(self, service: str, factor: float) -> None:
        """Execute a resource action: delegate to the environment's single
        mutation point, :meth:`SimulatedEnvironment.scale_service`."""
        self.env.scale_service(service, factor)


def inject_degradation(
    environment: SimulatedEnvironment, service: str, factor: float
) -> None:
    """Test/demo helper: degrade one service in place (factor > 1)."""
    if factor <= 0:
        raise ReproError("factor must be > 0")
    environment.scale_service(service, factor)
