"""repro — reproduction of *Efficient Statistical Performance Modeling for
Autonomic, Service-Oriented Systems* (Zhang, Bivens & Rezek, IPDPS 2007).

The package provides:

- :mod:`repro.bn` — a from-scratch Bayesian-network engine (DAGs, discrete
  and linear-Gaussian CPDs, exact and approximate inference, parameter and
  structure learning including K2).
- :mod:`repro.workflow` — the workflow algebra (sequence / parallel /
  choice / loop), the Cardoso-style reduction to the deterministic
  response-time function ``f(X)``, and the workflow-to-BN structure
  derivation that makes a KERT-BN "knowledge enhanced".
- :mod:`repro.simulator` — a discrete-event simulator of service-oriented
  systems; its monitored transactions are the training/testing data.
- :mod:`repro.core` — the KERT-BN model of the paper and the NRT-BN
  baseline, plus the periodic model-(re)construction scheme of Section 2.
- :mod:`repro.decentralized` — decentralized parameter learning
  (Section 3.4) with per-agent timing accounting.
- :mod:`repro.apps` — the dComp and pAccel applications (Section 5).
- :mod:`repro.serving` — the resilient model-serving layer: versioned
  registry with rollback, guarded queries with a tiered fallback chain
  behind per-tier circuit breakers, and data-quality quarantine.
- :mod:`repro.cli` — the ``repro`` command line; ``examples/cli_pipeline.py``
  drives every subcommand.

Quickstart
----------
>>> from repro import ediamond_scenario, build_continuous_kertbn
>>> env = ediamond_scenario()
>>> train, test = env.train_test(200, 100, rng=0)
>>> model = build_continuous_kertbn(env.workflow, train)
>>> round(model.report.construction_seconds, 6) >= 0
True
"""

from repro.version import __version__

from repro.core.kertbn import KERTBN, build_continuous_kertbn, build_discrete_kertbn
from repro.core.nrtbn import NRTBN, build_continuous_nrtbn, build_discrete_nrtbn
from repro.core.reconstruction import ReconstructionSchedule, ModelReconstructor
from repro.workflow.constructs import (
    Activity,
    Sequence,
    Parallel,
    Choice,
    Loop,
)
from repro.workflow.response_time import response_time_function
from repro.workflow.structure import kert_bn_structure
from repro.simulator.environment import SimulatedEnvironment
from repro.simulator.scenarios.ediamond import ediamond_scenario
from repro.simulator.scenarios.random_env import random_environment
from repro.apps.dcomp import DComp
from repro.apps.paccel import PAccel
from repro.serving import (
    AccuracyTripwire,
    DataQualityGate,
    FallbackChain,
    ModelRegistry,
    ModelServer,
)

__all__ = [
    "AccuracyTripwire",
    "DataQualityGate",
    "FallbackChain",
    "ModelRegistry",
    "ModelServer",
    "__version__",
    "KERTBN",
    "build_continuous_kertbn",
    "build_discrete_kertbn",
    "NRTBN",
    "build_continuous_nrtbn",
    "build_discrete_nrtbn",
    "ReconstructionSchedule",
    "ModelReconstructor",
    "Activity",
    "Sequence",
    "Parallel",
    "Choice",
    "Loop",
    "response_time_function",
    "kert_bn_structure",
    "SimulatedEnvironment",
    "ediamond_scenario",
    "random_environment",
    "DComp",
    "PAccel",
]
