"""Performance-problem localization.

The paper's introduction lists "performance problem localization and
remediation" among the autonomic activities the model must guide.  This
app does it with the KERT-BN machinery already in place: when the
end-to-end response time degrades, rank the services by how much each
one's *own* behavioural change explains the degradation.

Method (continuous KERT-BN):

1. ``observed_shift_i`` — the change in service *i*'s measured mean
   elapsed time vs the model's (training-time) prior mean, in units of
   the prior standard deviation (a z-score: how anomalous is *i*?);
2. ``impact_i`` — the end-to-end sensitivity of E[D] to service *i*:
   E[D] with X_i clamped to its observed mean (everything else
   marginalized), i.e. how much of the D-shift does *i*'s change
   reproduce?  One :meth:`~repro.apps.assessment.RapidAssessor.
   assess_each` call on the model's cached assessor builds all n
   single-service conditionings at once and propagates them in one
   batched sweep of the compiled moment plan, not n separate
   assessments.
3. blame = the product signs/magnitudes combined into a score; services
   whose local anomaly explains the global symptom rank first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.kertbn import KERTBN
from repro.exceptions import InferenceError


@dataclass
class Suspect:
    """One service's localization evidence."""

    service: str
    prior_mean: float
    observed_mean: float
    z_score: float
    projected_d_shift: float
    blame: float

    def row(self) -> dict:
        return {
            "service": self.service,
            "prior_mean": self.prior_mean,
            "observed_mean": self.observed_mean,
            "z": self.z_score,
            "projected_D_shift": self.projected_d_shift,
            "blame": self.blame,
        }


class ProblemLocalizer:
    """Rank services by responsibility for a response-time degradation."""

    def __init__(self, model: KERTBN):
        self.model = model
        # The model's cached assessor: its joint Gaussian and evidence-free
        # sweep are shared with every other consumer of this model.
        self.assessor = model.assessor
        names, self._mean, self._cov = self.assessor.joint
        self._index = {name: i for i, name in enumerate(names)}
        self._baseline_d, _ = self.assessor.assess()

    @property
    def baseline_response_mean(self) -> float:
        return self._baseline_d

    def localize(
        self, observed_means: Mapping[str, float], top: "int | None" = None
    ) -> list[Suspect]:
        """Return suspects sorted by blame, highest first.

        ``observed_means`` maps each (observable) service to its current
        mean elapsed time.  Services missing from the mapping are skipped
        (they are unobservable; run dComp on them first if needed).  A
        non-finite mean raises :class:`InferenceError`: its blame would
        be NaN or infinite and outrank every real suspect.
        """
        unknown = [s for s in observed_means if s not in self._index]
        if unknown:
            raise InferenceError(f"unknown services {sorted(unknown)}")
        if not observed_means:
            raise InferenceError("need at least one observed service mean")
        observed = {s: float(x) for s, x in observed_means.items()}
        bad = sorted(s for s, x in observed.items() if not math.isfinite(x))
        if bad:
            raise InferenceError(f"non-finite observed means for services {bad}")
        projected, _ = self.assessor.assess_each(observed)
        suspects = []
        for (service, x), d in zip(observed.items(), projected):
            i = self._index[service]
            prior_mean = float(self._mean[i])
            prior_std = float(np.sqrt(max(self._cov[i, i], 1e-18)))
            z = (x - prior_mean) / prior_std
            d_shift = float(d) - self._baseline_d
            # Blame: end-to-end impact weighted by local anomalousness.
            blame = abs(d_shift) * abs(z)
            suspects.append(
                Suspect(
                    service=service,
                    prior_mean=prior_mean,
                    observed_mean=x,
                    z_score=z,
                    projected_d_shift=d_shift,
                    blame=blame,
                )
            )
        suspects.sort(key=lambda s: s.blame, reverse=True)
        return suspects[:top] if top is not None else suspects
