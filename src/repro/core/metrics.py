"""Build reports.

The paper's two evaluation metrics (Section 4.1) are *construction time*
— "the time it takes to build the entire Bayesian network (i.e.
including the structure and parameter values)" — and *data-fitting
accuracy* — ``log10 p(TestData | BN)``.  :class:`BuildReport` carries the
former, split by phase and by CPD; the benchmarks score accuracy on the
networks themselves.  Section 4.3's decentralized accounting comes from
:meth:`repro.decentralized.coordinator.Coordinator.learn_round`, whose
agents fit one CPD each.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BuildReport:
    """Cost accounting for one model construction.

    ``per_cpd_seconds`` times each CPD's own fit.  The continuous KERT-BN
    fits its service CPDs from one window-wide ``ZᵀZ`` moment pass
    (:class:`~repro.bn.learning.mle.DesignMoments`) and one stacked
    ``np.linalg.solve`` per parent count; that shared work counts under
    ``parameter_seconds`` and not under any one CPD, whose own entry
    times only its variance floors and its ``LinearGaussianCPD``.  So
    ``parameter_seconds`` can exceed the per-CPD sum.
    """

    model_kind: str
    structure_seconds: float = 0.0
    parameter_seconds: float = 0.0
    per_cpd_seconds: dict = field(default_factory=dict)
    n_nodes: int = 0
    n_edges: int = 0
    n_parameters: int = 0
    n_training_rows: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def construction_seconds(self) -> float:
        """The paper's construction-time metric: structure + parameters."""
        return self.structure_seconds + self.parameter_seconds
