"""A fully assembled simulated service-oriented environment.

:class:`SimulatedEnvironment` ties together workflow, services, hosts and
workload, and exposes the two operations every experiment needs:

- :meth:`simulate` — run transactions and return a learning dataset;
- :meth:`train_test` — independent training and testing datasets (the
  paper refreshes both per repetition).

It also exposes the environment's *domain knowledge* — the response-time
function ``f`` and the KERT-BN structure — because that is precisely
what the paper assumes is "readily available" to the modeler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.bn.dag import DAG
from repro.bn.data import Dataset
from repro.exceptions import SimulationError
from repro.simulator.engine import Engine, TransactionRecord
from repro.simulator.faults import FaultSchedule
from repro.simulator.service import Host, ServiceSpec
from repro.simulator.traces import trace_to_dataset, warmup_filter
from repro.simulator.workload import OpenWorkload, Workload
from repro.utils.rng import ensure_rng
from repro.workflow.constructs import WorkflowNode
from repro.workflow.response_time import ResponseTimeFunction, response_time_function
from repro.workflow.structure import kert_bn_structure


@dataclass
class SimulatedEnvironment:
    """Workflow + services + hosts + workload, ready to generate data."""

    workflow: WorkflowNode
    services: tuple[ServiceSpec, ...]
    hosts: tuple[Host, ...] = ()
    workload: Workload = field(default_factory=lambda: OpenWorkload(rate=0.5))
    response: str = "D"
    demand_sigma: float = 0.25
    measurement_noise: float = 0.02
    warmup: int = 20
    resource_groups: "Mapping[str, tuple[str, ...]] | None" = None
    faults: "FaultSchedule | None" = None

    def __post_init__(self) -> None:
        self.services = tuple(self.services)
        self.hosts = tuple(self.hosts)
        self.workflow.validate()
        spec_names = {s.name for s in self.services}
        wf_names = set(self.workflow.services())
        if spec_names != wf_names:
            raise SimulationError(
                f"service specs {sorted(spec_names)} do not match workflow "
                f"services {sorted(wf_names)}"
            )

    # ------------------------------------------------------------------ #
    # Domain knowledge (what the modeler is given for free)
    # ------------------------------------------------------------------ #

    @property
    def service_names(self) -> tuple[str, ...]:
        return self.workflow.services()

    def response_time_function(self) -> ResponseTimeFunction:
        """The Eq.-4 deterministic ``f`` derived from the workflow."""
        return response_time_function(self.workflow)

    def knowledge_structure(self, include_resources: bool = False) -> DAG:
        """The KERT-BN DAG derived from workflow (+ resource sharing)."""
        return kert_bn_structure(
            self.workflow,
            response=self.response,
            resource_groups=self.resource_groups if include_resources else None,
        )

    # ------------------------------------------------------------------ #
    # Resource actions
    # ------------------------------------------------------------------ #

    def scale_service(self, service: str, factor: float) -> None:
        """Scale one service's delay distribution in place.

        ``factor < 1`` accelerates (the simulated equivalent of a
        resource-allocation action), ``factor > 1`` degrades (a fault /
        load injection).  This is the single mutation point both the
        autonomic manager's execute step and test harnesses go through.
        """
        from repro.simulator.delays import Scaled

        if factor <= 0:
            raise SimulationError(f"scale factor must be > 0, got {factor}")
        new_specs = []
        found = False
        for spec in self.services:
            if spec.name == service:
                found = True
                new_specs.append(
                    ServiceSpec(
                        spec.name,
                        Scaled(spec.delay, factor),
                        host=spec.host,
                        demand_sensitivity=spec.demand_sensitivity,
                        upstream_coupling=spec.upstream_coupling,
                        queueing=spec.queueing,
                    )
                )
            else:
                new_specs.append(spec)
        if not found:
            raise SimulationError(f"unknown service {service!r}")
        self.services = tuple(new_specs)

    # ------------------------------------------------------------------ #
    # Data generation
    # ------------------------------------------------------------------ #

    def run_transactions(self, n: int, rng=None) -> list[TransactionRecord]:
        """Run ``warmup + n`` transactions, return the last ``n``."""
        rng = ensure_rng(rng)
        total = n + self.warmup
        engine = Engine(
            self.workflow,
            self.services,
            self.hosts,
            demand_sigma=self.demand_sigma,
            rng=rng,
            faults=self.faults,
        )
        arrivals = self.workload.arrival_times(total, rng)
        records = engine.run(arrivals)
        return warmup_filter(records, self.warmup) if self.warmup else records

    def simulate(self, n_points: int, rng=None) -> Dataset:
        """Generate a dataset of ``n_points`` monitored transactions.

        One row per transaction, with measurement noise on the elapsed
        times; reporting failures (Sec. 5.1) are
        :func:`~repro.simulator.traces.inject_missing` applied to the
        result.
        """
        rng = ensure_rng(rng)
        records = self.run_transactions(n_points, rng)
        return trace_to_dataset(
            records,
            self.service_names,
            response=self.response,
            measurement_noise=self.measurement_noise,
            rng=rng,
        )

    def train_test(
        self, n_train: int, n_test: int, rng=None
    ) -> tuple[Dataset, Dataset]:
        """Fresh, independent training and testing datasets."""
        rng = ensure_rng(rng)
        data = self.simulate(n_train + n_test, rng)
        return data.split(n_train)
