"""Discrete-event simulator of service-oriented systems.

Stands in for the paper's Matlab simulator (Section 4.1) and for the
eDiaMoND test-bed (Section 5): services "receive and send calls among
[each other] and randomly generate a processing delay upon receiving
calls", assembled by workflows into applications.  On top of the paper's
minimal generative story the simulator adds the effects a real test-bed
would exhibit — FIFO queueing, per-request demand correlation, immediate
-upstream coupling (the "bottleneck shift" signal the KERT-BN edges are
meant to capture), host resource contention, and imprecise monitoring
(the Eq.-4 leak).

Key entry points: :class:`SimulatedEnvironment` (assemble and run),
:func:`repro.simulator.scenarios.ediamond.ediamond_scenario` (the Fig. 1
six-service system), :func:`repro.simulator.scenarios.random_env.random_environment`
(the Figs. 3–5 synthetic environments).
"""

from repro.simulator.delays import (
    GG1,
    DelayDistribution,
    Deterministic,
    Exponential,
    Gamma,
    LogNormal,
    MMk,
    Shifted,
    Uniform,
    erlang_c,
    kingman_waiting_time,
)
from repro.simulator.engine import Engine, TransactionRecord
from repro.simulator.environment import SimulatedEnvironment
from repro.simulator.faults import Degradation, FaultSchedule
from repro.simulator.report import analyze_trace, format_report
from repro.simulator.service import Host, ServiceSpec
from repro.simulator.traces import inject_missing, trace_to_dataset
from repro.simulator.workload import (
    BurstyWorkload,
    DiurnalWorkload,
    OpenWorkload,
)

__all__ = [
    "GG1",
    "DelayDistribution",
    "Deterministic",
    "Exponential",
    "Gamma",
    "LogNormal",
    "MMk",
    "Shifted",
    "Uniform",
    "erlang_c",
    "kingman_waiting_time",
    "Engine",
    "TransactionRecord",
    "SimulatedEnvironment",
    "Degradation",
    "FaultSchedule",
    "analyze_trace",
    "format_report",
    "Host",
    "ServiceSpec",
    "inject_missing",
    "trace_to_dataset",
    "BurstyWorkload",
    "DiurnalWorkload",
    "OpenWorkload",
]
