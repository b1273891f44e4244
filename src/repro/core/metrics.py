"""Build reports and model comparisons.

The paper's two evaluation metrics (Section 4.1) are *construction time*
— "the time it takes to build the entire Bayesian network (i.e.
including the structure and parameter values)" — and *data-fitting
accuracy* — ``log10 p(TestData | BN)``.  :class:`BuildReport` carries the
former (split by phase, with per-CPD detail for the decentralized
accounting of Section 4.3); :class:`ModelComparison` pairs both metrics
for two models on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass
class BuildReport:
    """Cost accounting for one model construction.

    ``per_cpd_seconds`` times each CPD's own fit.  The continuous KERT-BN
    fits its service CPDs from one window-wide ``ZᵀZ`` moment pass
    (:class:`~repro.bn.learning.mle.DesignMoments`); that shared pass
    counts under ``parameter_seconds`` and not under any one CPD, so
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

    @property
    def decentralized_parameter_seconds(self) -> float:
        """Max per-CPD learning time — Section 4.3's decentralized cost.

        "Since these CPDs will be computed in parallel on monitoring
        agents in practice, the decentralized learning time is the
        maximum of individual learning times across all CPDs."
        """
        if not self.per_cpd_seconds:
            return 0.0
        return max(self.per_cpd_seconds.values())

    @property
    def centralized_parameter_seconds(self) -> float:
        """Sum of per-CPD learning times (single-node accounting)."""
        return sum(self.per_cpd_seconds.values())

    def summary(self) -> dict:
        return {
            "model": self.model_kind,
            "construction_s": self.construction_seconds,
            "structure_s": self.structure_seconds,
            "parameter_s": self.parameter_seconds,
            "decentralized_param_s": self.decentralized_parameter_seconds,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "n_parameters": self.n_parameters,
            "n_training_rows": self.n_training_rows,
        }


@dataclass
class ModelComparison:
    """KERT-BN vs NRT-BN on one (train, test) pair — one Fig. 3/4 point."""

    n_services: int
    n_training_rows: int
    kert_report: BuildReport
    nrt_report: BuildReport
    kert_test_log10: float
    nrt_test_log10: float

    @property
    def construction_speedup(self) -> float:
        """NRT-BN construction time / KERT-BN construction time."""
        k = self.kert_report.construction_seconds
        return self.nrt_report.construction_seconds / k if k > 0 else float("inf")

    @property
    def accuracy_gap(self) -> float:
        """KERT-BN minus NRT-BN test log10-likelihood (positive = KERT wins)."""
        return self.kert_test_log10 - self.nrt_test_log10

    def row(self) -> dict:
        return {
            "n_services": self.n_services,
            "n_train": self.n_training_rows,
            "kert_build_s": self.kert_report.construction_seconds,
            "nrt_build_s": self.nrt_report.construction_seconds,
            "kert_log10": self.kert_test_log10,
            "nrt_log10": self.nrt_test_log10,
            "speedup": self.construction_speedup,
            "accuracy_gap": self.accuracy_gap,
        }


def mean_rows(rows: "list[Mapping[str, float]]") -> dict:
    """Average numeric fields across repetition rows (Fig. 3/4 style)."""
    if not rows:
        raise ValueError("no rows to average")
    keys = rows[0].keys()
    out = {}
    for k in keys:
        vals = [r[k] for r in rows]
        out[k] = sum(vals) / len(vals)
    return out
