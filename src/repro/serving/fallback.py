"""The serving fallback chain: four independent ways to answer a query.

A resilient server never lets one broken backend take down the whole
query surface.  Discrete posterior queries walk a chain of tiers, each
strictly cheaper in assumptions than the one before:

1. ``compiled-einsum`` — the compile-once kernel
   (:meth:`~repro.bn.inference.engine.CompiledDiscreteModel.pmf`: one
   gather of a read-only row the plan normalized once);
2. ``factor-sweep`` — exact variable elimination
   (:func:`~repro.bn.inference.variable_elimination.eliminate`) over CPD
   factors the chain extracts on first use; it shares no plans, cache or
   kernels with tier 1, so a broken plan cannot fail both;
3. ``likelihood-weighting`` — seeded importance sampling straight off
   the CPDs, needing no compiled artifacts at all;
4. ``cached-prior`` — evidence-free marginals captured at chain
   construction (exact when the engine was healthy at startup, forward-
   sampled otherwise).  Always answers; marked ``approximate``.

Every answer records which tier produced it and what the earlier tiers'
failures were, so operators can see degradation instead of silently
eating it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.bn.inference.sampling import likelihood_weighting
from repro.bn.inference.variable_elimination import eliminate, network_factors
from repro.exceptions import InferenceError, ServingError
from repro.utils.rng import ensure_rng

TIER_COMPILED = "compiled-einsum"
TIER_SWEEP = "factor-sweep"
TIER_SAMPLING = "likelihood-weighting"
TIER_PRIOR = "cached-prior"

#: Walk order; TIER_PRIOR is terminal and cannot fail.
CHAIN = (TIER_COMPILED, TIER_SWEEP, TIER_SAMPLING, TIER_PRIOR)


def try_tier(tier: str, breaker, deadline, errors: dict, kernel, *args):
    """Try one tier: the deadline first, then the tier's breaker (if
    any), then ``kernel(*args)``.  Returns the kernel's result, or
    ``None`` after recording in ``errors`` why the tier gave no answer."""
    if deadline is not None and time.monotonic() > deadline:
        errors[tier] = "deadline exceeded"
        return None
    if breaker is not None and not breaker.allow():
        errors[tier] = "circuit open"
        return None
    try:
        result = kernel(*args)
    except Exception as exc:
        errors[tier] = f"{type(exc).__name__}: {exc}"
        if breaker is not None:
            breaker.record_failure()
        return None
    if breaker is not None:
        breaker.record_success()
    return result


@dataclass
class TierAnswer:
    """One answered query plus its provenance through the chain."""

    variables: tuple
    values: np.ndarray           # normalized pmf, axes follow `variables`
    tier: str                    # which tier answered
    tier_errors: dict = field(default_factory=dict)  # tier -> error string
    approximate: bool = False    # sampling / prior answers are approximate
    tier_rows: "dict | None" = None  # batch rows per tier; None == all `tier`

    @property
    def degraded(self) -> bool:
        return self.tier != TIER_COMPILED


class FallbackChain:
    """Tiered discrete-query execution over one compiled network."""

    def __init__(
        self,
        network,
        rng=None,
        n_samples: int = 1500,
        breakers: "Mapping[str, object] | None" = None,
    ):
        if n_samples < 1:
            raise ServingError("n_samples must be >= 1")
        self.network = network
        self.engine = network.compiled()
        self.n_samples = int(n_samples)
        self.rng = ensure_rng(rng)
        #: Optional per-tier circuit breakers ({tier: CircuitBreaker});
        #: the terminal prior tier is never broken.
        self.breakers = dict(breakers or {})
        self._cards = self.engine.cardinalities
        self._priors = self._capture_priors()
        #: CPD factors for the elimination tier; extracted on its first
        #: use so healthy model swaps never pay for them.  Racing first
        #: uses may each extract a list; either one is correct.
        self._factors = None

    # ------------------------------------------------------------------ #

    def _capture_priors(self) -> dict:
        """Per-node evidence-free marginals, captured once at startup.

        Exact engine marginals when the engine is healthy (the normal
        case: the chain is built right after the model is); a seeded
        forward-sampling histogram if even that fails, so the terminal
        tier exists no matter what.
        """
        priors: dict[str, np.ndarray] = {}
        pending = list(self.engine.nodes)
        for node in list(pending):
            try:
                priors[node] = self.engine.prior(node).values
                pending.remove(node)
            except Exception:  # engine already broken at startup
                break
        if pending:
            samples = self.network.sample(max(self.n_samples, 500), self.rng)
            for node in pending:
                counts = np.bincount(
                    np.asarray(samples[node], dtype=int),
                    minlength=self._cards[node],
                ).astype(float)
                priors[node] = counts / counts.sum()
        return priors

    def prior(self, variables: Sequence[str]) -> np.ndarray:
        """Cached prior over ``variables`` (product of marginals for
        joint queries — the terminal tier trades exactness for
        availability)."""
        pmf = self._priors[str(variables[0])]
        for v in variables[1:]:
            pmf = np.multiply.outer(pmf, self._priors[str(v)])
        return pmf

    # ------------------------------------------------------------------ #

    def _sweep_pmf(self, variables: tuple, evidence: Mapping[str, int]) -> np.ndarray:
        if self._factors is None:
            self._factors = network_factors(self.network)
        return eliminate(self._factors, variables, evidence).values

    def _sampling_pmf(
        self, variables: tuple, evidence: Mapping[str, int]
    ) -> np.ndarray:
        samples, weights = likelihood_weighting(
            self.network, evidence, n=self.n_samples, rng=self.rng
        )
        shape = tuple(self._cards[v] for v in variables)
        pmf = np.zeros(shape)
        idx = tuple(np.asarray(samples[v], dtype=int) for v in variables)
        np.add.at(pmf, idx, weights)
        total = pmf.sum()
        if total <= 0:
            raise InferenceError("all importance weights are zero")
        return pmf / total

    def _variables(self, variables: Sequence[str]) -> tuple:
        """Unknown variables are a *caller* bug, not a backend fault."""
        variables = tuple(map(str, variables))
        unknown = [v for v in variables if v not in self._cards]
        if not variables or unknown:
            raise InferenceError(
                f"bad query variables {list(variables)} (unknown: {unknown})"
            )
        return variables

    def answer(
        self,
        variables: Sequence[str],
        evidence: "Mapping[str, int] | None" = None,
        deadline: "float | None" = None,
    ) -> TierAnswer:
        """Walk the chain until a tier answers.

        ``evidence`` maps variable → bin state (already validated by the
        guard layer); ``deadline`` is a ``time.monotonic()`` timestamp —
        once passed, remaining non-terminal tiers are skipped and the
        cached prior answers immediately.  Unknown variables raise
        :class:`InferenceError` outright.
        """
        return self.walk(
            self._variables(variables),
            {str(k): int(v) for k, v in (evidence or {}).items()},
            deadline,
        )

    def walk(
        self,
        variables: tuple,
        evidence: "dict[str, int]",
        deadline: "float | None" = None,
    ) -> TierAnswer:
        """:meth:`answer` for a caller holding a tuple of known names and a
        ``{str: int}`` state dict (the guarded server); no copies."""
        errors: dict[str, str] = {}
        for tier, kernel in (
            (TIER_COMPILED, self.engine.pmf),
            (TIER_SWEEP, self._sweep_pmf),
            (TIER_SAMPLING, self._sampling_pmf),
        ):
            values = try_tier(
                tier, self.breakers.get(tier), deadline, errors,
                kernel, variables, evidence,
            )
            if values is not None:
                return TierAnswer(
                    variables=variables,
                    values=values,
                    tier=tier,
                    tier_errors=errors,
                    approximate=tier == TIER_SAMPLING,
                )
        return TierAnswer(
            variables=variables,
            values=self.prior(variables),
            tier=TIER_PRIOR,
            tier_errors=errors,
            approximate=True,
        )

    def answer_batch(
        self,
        variables: Sequence[str],
        columns: "Mapping[str, np.ndarray]",
        deadline: "float | None" = None,
    ) -> TierAnswer:
        """Answer N rows of bin-state evidence columns (all the same
        length, already validated); ``values[j]`` answers row ``j``.

        The batch kernel is tier 1.  When it gives no answer, each row
        walks :meth:`answer` on its own and the kernel is not retried;
        ``tier`` is then the deepest tier (in :data:`CHAIN` order) that
        answered any row, so it never claims a better tier than some row
        got; ``tier_rows`` counts the rows each tier answered, and
        ``tier_errors`` adds, per tier, the first error a row met, so a
        deadline that passed during the rows shows there.
        """
        variables = self._variables(variables)
        errors: dict[str, str] = {}
        pmfs = try_tier(
            TIER_COMPILED, self.breakers.get(TIER_COMPILED), deadline, errors,
            self.engine.query_batch, variables, columns,
        )
        if pmfs is not None:
            return TierAnswer(variables, pmfs, TIER_COMPILED, errors)
        names = list(columns)
        answers = [
            self.answer(variables, dict(zip(names, map(int, row))), deadline)
            for row in zip(*columns.values())
        ]
        rows: dict[str, int] = {}
        for a in answers:
            rows[a.tier] = rows.get(a.tier, 0) + 1
            for tier, error in a.tier_errors.items():
                errors.setdefault(tier, error)
        return TierAnswer(
            variables=variables,
            values=np.stack([a.values for a in answers]),
            tier=max(rows, key=CHAIN.index),
            tier_errors=errors,
            approximate=any(a.approximate for a in answers),
            tier_rows=rows,
        )
