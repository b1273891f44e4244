"""From-scratch Bayesian-network engine.

This subpackage is the statistical substrate of the reproduction: the
paper built on Murphy's Matlab Bayes Net Toolbox, which is unavailable
here, so everything — graphs, CPDs, inference, learning — is implemented
directly on NumPy.

Layout
------
- :mod:`repro.bn.dag` — directed acyclic graphs with BN-specific queries
  (topological order, cycle-checked edges, induced subgraphs).
- :mod:`repro.bn.data` — the column-oriented :class:`Dataset` that all
  learning and scoring code consumes.
- :mod:`repro.bn.factors` — discrete factor algebra for exact inference.
- :mod:`repro.bn.cpd` — tabular, linear-Gaussian and (noisy-)deterministic
  conditional probability distributions.
- :mod:`repro.bn.network` — discrete / Gaussian / hybrid networks.
- :mod:`repro.bn.inference` — variable elimination, exact Gaussian
  conditioning, sampling, likelihood scoring.
- :mod:`repro.bn.learning` — MLE and Bayesian parameter estimation, the
  K2 structure-learning algorithm and decomposable scores, and the
  exhaustive search that K2's tests use as their oracle.
- :mod:`repro.bn.discretize` — quantile / uniform discretization used by
  the discrete Section-5 models.
"""

from repro.bn.dag import DAG
from repro.bn.data import Dataset
from repro.bn.factors import DiscreteFactor
from repro.bn.cpd import TabularCPD, LinearGaussianCPD, DeterministicCPD, NoisyDeterministicCPD
from repro.bn.network import (
    DiscreteBayesianNetwork,
    GaussianBayesianNetwork,
    HybridResponseNetwork,
)

__all__ = [
    "DAG",
    "Dataset",
    "DiscreteFactor",
    "TabularCPD",
    "LinearGaussianCPD",
    "DeterministicCPD",
    "NoisyDeterministicCPD",
    "DiscreteBayesianNetwork",
    "GaussianBayesianNetwork",
    "HybridResponseNetwork",
]
