"""The paper's models and their construction machinery.

- :mod:`repro.core.kertbn` — the Knowledge-Enhanced Response Time
  Bayesian Network: workflow-derived structure, Eq.-4 response CPD,
  per-node parameter learning with per-CPD timing.
- :mod:`repro.core.nrtbn` — the Naive Response Time BN baseline:
  K2 structure learning plus full parameter learning, and the
  learning-free naive structure Section 4.2 dismisses.
- :mod:`repro.core.reconstruction` — the periodic model-(re)construction
  scheme of Section 2 (Eqs. 1–2: ``W = K·T_CON``, ``T_CON = α·T_DATA``).
- :mod:`repro.core.metrics` — construction-time / accuracy comparison
  containers used by the benchmarks.
"""

from repro.core.kertbn import (
    KERTBN,
    WorkflowKnowledge,
    build_continuous_kertbn,
    build_discrete_kertbn,
    derive_knowledge,
)
from repro.core.nrtbn import NRTBN, build_continuous_nrtbn, build_discrete_nrtbn
from repro.core.reconstruction import ReconstructionSchedule, ModelReconstructor
from repro.core.metrics import BuildReport, ModelComparison

__all__ = [
    "KERTBN",
    "WorkflowKnowledge",
    "build_continuous_kertbn",
    "build_discrete_kertbn",
    "derive_knowledge",
    "NRTBN",
    "build_continuous_nrtbn",
    "build_discrete_nrtbn",
    "ReconstructionSchedule",
    "ModelReconstructor",
    "BuildReport",
    "ModelComparison",
]
