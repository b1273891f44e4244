"""Inference algorithms.

- :mod:`repro.bn.inference.gaussian` — exact joint-MVN construction and
  conditioning for linear-Gaussian networks (dComp / pAccel posteriors in
  the continuous setting).
- :mod:`repro.bn.inference.variable_elimination` — exact discrete
  inference by factor algebra (the discrete Section-5 models): the
  reference the compiled engine is tested against and the serving
  fallback chain's exact tier.
- :mod:`repro.bn.inference.engine` — compile-once engine for repeated /
  batched queries against a fixed discrete model (the serving hot path).
- :mod:`repro.bn.inference.sampling` — forward sampling and likelihood
  weighting for networks whose CPDs are not jointly tractable (hybrid
  nets with the nonlinear ``max`` response CPD).
- :mod:`repro.bn.inference.likelihood` — dataset scoring helpers.
"""

from repro.bn.inference.gaussian import (
    joint_gaussian,
    condition_gaussian,
    marginal_gaussian,
)
from repro.bn.inference.variable_elimination import query
from repro.bn.inference.engine import CompiledDiscreteModel
from repro.bn.inference.sampling import forward_sample, likelihood_weighting
from repro.bn.inference.likelihood import log10_likelihood, mean_log_likelihood

__all__ = [
    "joint_gaussian",
    "condition_gaussian",
    "marginal_gaussian",
    "query",
    "CompiledDiscreteModel",
    "forward_sample",
    "likelihood_weighting",
    "log10_likelihood",
    "mean_log_likelihood",
]
