"""Per-service budget tracking and budget-eater attribution.

:mod:`repro.bn.budgets` inverts the KERT-BN composition into per-service
budgets; this module is the obs-side consumer.  :class:`BudgetTracker`
holds the current allocation (duck-typed — anything with ``sla``,
``target``, ``slack``, ``feasible``, ``expression`` and a ``budgets``
sequence of ``service``/``budget`` records, so the obs layer stays
import-free of the model stack), watches one *measured* latency
histogram per service through the same
:class:`~repro.obs.slo.CountWindow` that
:class:`~repro.obs.slo.SLOMonitor` keeps per objective, and keeps the
model-side posterior blame ``P(X_i > b_i | D > sla)`` the analyze
phase pushes in.

The product is a ranked attribution: for each service the *allocated*
budget, the *consumed* windowed percentile, the SRE ``burn_rate =
consumed / allocated``, and the blame share — sorted so the service
eating the end-to-end SLO comes first.  :class:`~repro.obs.slo.
SLOMonitor` folds the tracker into its evaluate cycle (budget breaches
ride the normal breach pipeline with ``kind="budget"``), the exporter
renders the ``slo.budget.*`` gauge families with a ``service`` label,
and the manager uses the top-ranked breach to aim its action.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.slo import CountWindow, _percentile_from_buckets

__all__ = ["BudgetTracker", "BUDGET_GAUGE_FAMILIES", "BUDGET_STREAM_BUCKETS"]

#: Gauge families the tracker publishes under ``slo.budget.<family>.
#: <service>`` — the exporter re-groups them into labeled series.
BUDGET_GAUGE_FAMILIES = (
    "allocated",
    "consumed",
    "burn_rate",
    "blame",
    "breached",
)

#: Buckets for per-service budget streams: 12 per decade over
#: 100 µs … 100 s.  The registry default (1/2.5/5 per decade) is built
#: for order-of-magnitude overviews; budget burn compares a windowed
#: percentile against a bound that may sit ~20 % over the healthy
#: level, so interpolation error must stay well under that gap.
BUDGET_STREAM_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** (exponent + step / 12.0)
    for exponent in range(-4, 2)
    for step in range(12)
)

#: Burn-history depth per service (feeds the dashboard sparkline).
_HISTORY = 32


@dataclass
class _ServiceState:
    """Count window + burn history for one service's stream."""

    window: CountWindow = field(default_factory=CountWindow)
    consumed: Optional[float] = None
    burn_rate: float = 0.0
    breached: bool = False
    points: int = 0
    history: Deque[float] = field(
        default_factory=lambda: deque(maxlen=_HISTORY)
    )


class BudgetTracker:
    """Track measured per-service streams against an allocation.

    ``stream_pattern`` names the registry histogram carrying each
    service's measured latencies (``{service}`` is substituted); the
    manager publishes them per monitoring window.  ``observe`` ingests
    one interval per call — :class:`~repro.obs.slo.SLOMonitor` calls it
    from ``evaluate`` so budget windows advance in lockstep with the
    end-to-end objectives.
    """

    def __init__(
        self,
        allocation: Any = None,
        stream_pattern: str = "manager.window.service_seconds.{service}",
        percentile: float = 95.0,
        window: int = 5,
        burn_rate_threshold: float = 1.0,
        min_points: int = 1,
    ):
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if burn_rate_threshold <= 0:
            raise ValueError(
                f"burn_rate_threshold must be > 0, got {burn_rate_threshold}"
            )
        if "{service}" not in stream_pattern:
            raise ValueError(
                "stream_pattern must contain a {service} placeholder, "
                f"got {stream_pattern!r}"
            )
        self.stream_pattern = stream_pattern
        self.percentile = float(percentile)
        self.window = int(window)
        self.burn_rate_threshold = float(burn_rate_threshold)
        self.min_points = int(min_points)
        self.allocation: Any = None
        self.allocations_seen = 0
        self._budgets: Dict[str, float] = {}
        self._blame: Dict[str, float] = {}
        self._states: Dict[str, _ServiceState] = {}
        self._retired: set = set()
        if allocation is not None:
            self.update_allocation(allocation)

    # -- model-side inputs ---------------------------------------------- #

    def update_allocation(self, allocation: Any) -> None:
        """Install a (re)derived allocation; measurement windows and
        burn histories survive so a re-publish does not blind the
        tracker, but budgets for dropped services are retired."""
        budgets = {
            str(sb.service): float(sb.budget) for sb in allocation.budgets
        }
        if not budgets:
            raise ValueError("allocation carries no per-service budgets")
        self.allocation = allocation
        self.allocations_seen += 1
        self._budgets = budgets
        for service in budgets:
            self._states.setdefault(service, _ServiceState())
            self._retired.discard(service)
        for service in list(self._states):
            if service not in budgets:
                del self._states[service]
                self._retired.add(service)
        self._blame = {s: b for s, b in self._blame.items() if s in budgets}

    def update_blame(self, blame: Any) -> None:
        """Install fresh posterior blame ``P(X_i > b_i | D > sla)``."""
        self._blame = {
            str(s): float(v) for s, v in dict(blame).items()
            if str(s) in self._budgets
        }

    @property
    def services(self) -> Tuple[str, ...]:
        return tuple(sorted(self._budgets))

    def stream_name(self, service: str) -> str:
        return self.stream_pattern.format(service=service)

    # -- measurement ingestion ------------------------------------------ #

    def observe(self, registry: Any) -> List[dict]:
        """Ingest one interval per service; return breach records.

        Each record is dict-shaped for :class:`~repro.obs.slo.SLOBreach`
        (``objective=budget.<service>``, ``kind="budget"``) — the
        monitor turns them into real breach events on its pipeline.
        """
        breaches: List[dict] = []
        for service in self.services:
            state = self._states[service]
            hist = registry.histogram(
                self.stream_name(service), buckets=BUDGET_STREAM_BUCKETS
            )
            aggregated = state.window.push(hist.bucket_counts(), self.window)
            consumed = _percentile_from_buckets(
                hist.buckets, aggregated, self.percentile
            )
            points = sum(aggregated)
            state.points = points
            budget = self._budgets[service]
            if consumed is None or points < self.min_points:
                state.consumed = None
                state.burn_rate = 0.0
                state.breached = False
                state.history.append(0.0)
                continue
            burn = consumed / budget if budget > 0 else float("inf")
            state.consumed = float(consumed)
            state.burn_rate = float(burn)
            state.breached = burn >= self.burn_rate_threshold
            state.history.append(float(burn))
            if state.breached:
                breaches.append(
                    {
                        "objective": f"budget.{service}",
                        "kind": "budget",
                        "observed": float(consumed),
                        "threshold": float(budget),
                        "burn_rate": float(burn),
                        "window_intervals": len(state.window),
                        "service": service,
                        "detail": (
                            f"p{self.percentile:g}"
                            f"({self.stream_name(service)}) over "
                            f"{len(state.window)} interval(s), "
                            f"{points} point(s); blame "
                            f"{self._blame.get(service, 0.0):.3f}"
                        ),
                    }
                )
        return breaches

    # -- outputs -------------------------------------------------------- #

    def ranking(self) -> List[dict]:
        """Budget-eater attribution, worst first: breached budgets
        lead, then burn rate, then posterior blame."""
        rows = [
            {
                "service": service,
                "allocated": self._budgets[service],
                "consumed": state.consumed,
                "burn_rate": state.burn_rate,
                "blame": self._blame.get(service, 0.0),
                "breached": state.breached,
                "points": state.points,
                "history": [round(b, 4) for b in state.history],
            }
            for service, state in (
                (s, self._states[s]) for s in self.services
            )
        ]
        rows.sort(
            key=lambda r: (
                not r["breached"],
                -float(r["burn_rate"]),
                -float(r["blame"]),
                r["service"],
            )
        )
        return rows

    def publish_gauges(self, registry: Any) -> None:
        """(Re)write the ``slo.budget.<family>.<service>`` gauges."""
        remove = getattr(registry, "remove_gauge", None)
        if remove is not None and self._retired:
            # A reallocation dropped these services; without removal
            # their last-written values would sit on /metrics forever.
            for service in tuple(self._retired):
                for family in BUDGET_GAUGE_FAMILIES:
                    remove(f"slo.budget.{family}.{service}")
            self._retired.clear()
        for service in self.services:
            state = self._states[service]
            registry.gauge(f"slo.budget.allocated.{service}").set(
                self._budgets[service]
            )
            if state.consumed is not None:
                registry.gauge(f"slo.budget.consumed.{service}").set(
                    state.consumed
                )
            registry.gauge(f"slo.budget.burn_rate.{service}").set(
                state.burn_rate
            )
            registry.gauge(f"slo.budget.blame.{service}").set(
                self._blame.get(service, 0.0)
            )
            registry.gauge(f"slo.budget.breached.{service}").set(
                1.0 if state.breached else 0.0
            )

    def status(self) -> dict:
        """JSON-ready view for ``/snapshot`` and the dashboards."""
        alloc = self.allocation
        head: dict = {
            "allocations_seen": self.allocations_seen,
            "percentile": self.percentile,
            "window": self.window,
            "burn_rate_threshold": self.burn_rate_threshold,
        }
        if alloc is not None:
            head.update(
                sla=float(alloc.sla),
                target=float(alloc.target),
                slack=float(alloc.slack),
                feasible=bool(alloc.feasible),
                expression=str(alloc.expression),
            )
        head["services"] = self.ranking()
        return head
