"""The guarded query front-end: :class:`ModelServer`.

This is the one door through which autonomic components query a live
model.  Every entry point:

- **validates** evidence through :mod:`repro.serving.guards` (unknown
  variables, NaN means, out-of-range bins → rejection with reasons,
  never a crash);
- **bounds** latency with a per-query deadline — once overrun, the
  fallback chain stops trying expensive tiers and the cached prior
  answers;
- **degrades** through the :class:`~repro.serving.fallback.FallbackChain`
  on engine failure, recording which tier answered;
- **skips** a failing tier deterministically via its
  :class:`~repro.serving.breaker.CircuitBreaker`.

It serves discrete models only.  A continuous KERT-BN answers its
questions through its one cached ``KERTBN.assessor``
(:class:`~repro.apps.assessment.RapidAssessor`); the constructor and
:meth:`refresh` refuse it with :class:`~repro.exceptions.ServingError`.

The server can wrap a bare model or a
:class:`~repro.serving.registry.ModelRegistry` — in the latter case
:meth:`refresh` follows the registry's active version, which is how a
rollback propagates to the serving path.  The served version is one
:class:`_Served` snapshot that a swap replaces with a single attribute
assignment; every entry point reads it once, so a concurrent
:meth:`refresh` never mixes two versions in one answer.

Each outcome is counted once, in the process metrics registry
(``serving.queries``, ``serving.status.*``, ``serving.tier.*`` and the
``serving.query.seconds`` histogram), while observability is enabled.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.apps.paccel import PAccelResult
from repro.apps.violation import tail_probability_from_pmf
from repro.bn.network import DiscreteBayesianNetwork
from repro.exceptions import ServingError
from repro.obs.runtime import OBS as _OBS
from repro.serving.breaker import CircuitBreaker
from repro.serving.fallback import CHAIN, FallbackChain, TierAnswer
from repro.serving.guards import check_row
from repro.serving.registry import ModelRegistry
from repro.utils.rng import ensure_rng

STATUS_OK = "ok"
STATUS_REJECTED = "rejected"

#: Draws of the fallback chain's sampling tier per answer.
N_FALLBACK_SAMPLES = 1500
#: Each tier's breaker opens after this many consecutive failures and
#: stays open for this many calls.
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN = 25


@dataclass
class QueryResult:
    """One guarded query's outcome — answer or explained refusal."""

    status: str
    value: object = None            # pmf ndarray / float / PAccelResult
    tier: "str | None" = None       # which backend answered
    reasons: tuple = ()             # rejection reasons (status "rejected")
    tier_errors: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    deadline_exceeded: bool = False
    approximate: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class ColumnarBatchResult:
    """Outcome of one :meth:`ModelServer.query_batch_columns` call.

    The columnar fast path answers N same-signature rows with one
    vectorized kernel call and O(1) Python objects, so the result is a
    single batch-level record instead of N :class:`QueryResult`\\ s:
    ``pmfs[j]`` answers the j-th *valid* row; ``valid`` is a boolean
    mask over the input rows (``None`` means every row was valid).
    A degraded batch's rows may answer from different tiers: ``tier`` is
    then the deepest tier that answered any row (compiled → sweep →
    sampling → prior) and ``tier_rows`` counts the rows per tier.
    """

    status: str
    n_rows: int
    pmfs: "np.ndarray | None" = None
    valid: "np.ndarray | None" = None     # bool mask; None == all valid
    n_valid: int = 0
    tier: "str | None" = None
    reasons: tuple = ()
    tier_errors: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    deadline_exceeded: bool = False
    approximate: bool = False
    tier_rows: "dict | None" = None       # None == every row from `tier`

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class _Served:
    """One served model version and what the entry points derive from it.

    Built whole before a swap and never changed after.
    """

    model: object
    version: "int | None"
    chain: FallbackChain
    known: frozenset                # node names, as strings
    cards: dict                     # node -> cardinality


class ModelServer:
    """Resilient serving facade over a model or a model registry."""

    def __init__(
        self,
        source,
        *,
        deadline_seconds: "float | None" = None,
        rng=None,
    ):
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ServingError("deadline_seconds must be > 0 when set")
        self.deadline_seconds = deadline_seconds
        self.rng = ensure_rng(rng)
        self.breakers = {
            tier: CircuitBreaker(BREAKER_THRESHOLD, BREAKER_COOLDOWN, name=tier)
            for tier in CHAIN[:-1]
        }
        self._registry: "ModelRegistry | None" = None
        self._served: "_Served | None" = None
        if isinstance(source, ModelRegistry):
            self._registry = source
            self.refresh()
        else:
            self._set_model(source, version=None)

    # ------------------------------------------------------------------ #
    # Model lifecycle
    # ------------------------------------------------------------------ #

    @property
    def model(self):
        return self._served.model

    @property
    def version(self) -> "int | None":
        """Registry version currently served (None for a bare model)."""
        return self._served.version

    def refresh(self) -> "int | None":
        """Follow the registry's active version (no-op for bare models,
        or when the active version is already the one being served)."""
        if self._registry is None:
            return None
        active = self._registry.active_version
        if active is None:
            raise ServingError("registry has no active version to serve")
        if self._served is None or active != self._served.version:
            self._set_model(self._registry.load(active), version=active)
        return self._served.version

    def _set_model(self, model, version: "int | None") -> None:
        """Serve ``model``; a non-discrete one is refused before the
        served version changes, so the previous version keeps serving."""
        if model is None:
            raise ServingError("ModelServer needs a model to serve")
        network = model.network
        if not isinstance(network, DiscreteBayesianNetwork):
            raise ServingError(
                f"ModelServer serves discrete models only; the model is "
                f"{model.report.model_kind!r}: ask a continuous KERT-BN "
                f"through its KERTBN.assessor"
            )
        chain = FallbackChain(
            network,
            rng=self.rng,
            n_samples=N_FALLBACK_SAMPLES,
            breakers=self.breakers,
        )
        # One reference assignment: a query in flight keeps the snapshot
        # it read, and the next one sees the whole new version.
        self._served = _Served(
            model=model,
            version=version,
            chain=chain,
            known=frozenset(map(str, network.nodes)),
            cards=network.cardinalities,
        )

    @property
    def chain(self) -> FallbackChain:
        """The served version's fallback chain."""
        return self._served.chain

    # ------------------------------------------------------------------ #
    # The guarded call
    # ------------------------------------------------------------------ #

    def _deadline(self) -> "float | None":
        if self.deadline_seconds is None:
            return None
        return time.monotonic() + self.deadline_seconds

    def _finish(self, result, started: float):
        """Time and count one outcome."""
        result.elapsed_seconds = time.monotonic() - started
        if _OBS.enabled:
            _count(result)
        return result

    def _call(
        self,
        what: str,
        variables: "Sequence[str] | None",
        evidence: "Mapping | None",
        value=None,
        *,
        binned: bool = False,
        reasons: "tuple[str, ...]" = (),
    ) -> QueryResult:
        """The guarded call behind :meth:`query`, :meth:`violation_prob`
        and :meth:`project`.

        One read of the served snapshot first, then validation
        (``reasons`` are the caller's own), then compute and
        :meth:`_finish`.  The fallback chain answers ``variables`` (the
        response when ``None``) and ``value(served, pmf)`` makes the
        result's value.  Raw evidence needs the model's discretizer.
        """
        started = time.monotonic()
        served = self._served
        evidence = {} if evidence is None else evidence
        if variables is None:
            variables = (served.model.response,)
        else:
            variables = tuple(map(str, variables))
        known = served.known
        if not reasons and not binned and served.model.discretizer is None:
            reasons = (f"{what} requires the model's discretizer for raw evidence",)
        if not reasons:
            reasons = check_row(
                evidence,
                known=known,
                cards=served.cards,
                forbid=variables,
                binned=binned,
                require_nonempty=False,
            )
            if not known.issuperset(variables):
                reasons += tuple(
                    f"unknown query variable {v!r}"
                    for v in variables
                    if v not in known
                )
            if not variables:
                reasons += ("need at least one query variable",)
        if reasons:
            result = QueryResult(status=STATUS_REJECTED, reasons=reasons)
        else:
            # The call's one {str: int} state dict; the chain and the
            # engine read it as is.
            disc = served.model.discretizer
            states = {
                str(k): int(v) if binned else disc.state_of(str(k), float(v))
                for k, v in evidence.items()
            }
            answer = served.chain.walk(variables, states, deadline=self._deadline())
            result = QueryResult(
                status=STATUS_OK,
                value=answer.values if value is None else value(served, answer.values),
                **_provenance(answer),
            )
        return self._finish(result, started)

    # ------------------------------------------------------------------ #
    # Query surface
    # ------------------------------------------------------------------ #

    def query(
        self,
        variables: Sequence[str],
        evidence: "Mapping | None" = None,
        binned: bool = False,
    ) -> QueryResult:
        """Guarded posterior pmf ``P(variables | evidence)`` (discrete).

        ``evidence`` values are raw measurement means by default
        (discretized through the model's discretizer) or bin states with
        ``binned=True``.  Malformed evidence → ``status="rejected"`` with
        reasons; engine faults walk the fallback chain.
        """
        return self._call("query", variables, evidence, binned=binned)

    def query_batch_columns(
        self,
        variables: Sequence[str],
        columns: "Mapping[str, Sequence[int]]",
    ) -> ColumnarBatchResult:
        """Guarded batch query: N binned same-signature rows, O(1) objects.

        ``columns`` maps variable → integer bin-state column (all the
        same length).  Validation is vectorized (per-column bounds
        checks instead of per-row dict sweeps) and the answer is one
        :class:`ColumnarBatchResult` instead of N ``QueryResult``\\ s,
        so the guarded overhead stays within a small constant factor of
        the raw engine kernel — this is the bulk lane for callers that
        hold many evidence rows at once.  Raw measurement columns are
        binned by the caller (``model.discretizer.transform``) first.

        Rows with out-of-range states are rejected via the ``valid``
        mask while the clean rows still answer.  The clean rows go to
        :meth:`FallbackChain.answer_batch`: one batch kernel call, or,
        when it fails, its breaker is open or the deadline has passed,
        one :meth:`FallbackChain.answer` walk per row, exactly like a
        :meth:`query` call.  Accounting is bulk but row-equivalent: each
        input row counts as one query in the ``serving.*`` counters.
        """
        started = time.monotonic()
        cols: dict[str, np.ndarray] = {}
        sizes: dict[str, int] = {}
        bad_cols: list[str] = []
        for v, col in columns.items():
            v = str(v)
            arr = np.asarray(col).reshape(-1)
            sizes[v] = arr.size
            if arr.dtype.kind in "iu":
                cols[v] = arr
            else:
                bad_cols.append(f"column {v!r} is not integer-typed")
        n_rows = max(sizes.values(), default=0)
        served = self._served
        known = served.known
        variables = tuple(map(str, variables))
        reasons = bad_cols
        for v in variables:
            if v not in known:
                reasons.append(f"unknown query variable {v!r}")
            elif v in cols:
                reasons.append(f"variable {v!r} may not appear in evidence")
        reasons += [f"unknown variable {v!r}" for v in cols if v not in known]
        if not variables:
            reasons.append("need at least one query variable")
        if not cols and not reasons:
            reasons.append("empty evidence columns")
        if any(size != n_rows for size in sizes.values()):
            reasons.append(f"evidence columns have mismatched lengths {sizes}")
        if not reasons:
            # Vectorized per-row domain check — the columnar analogue of
            # check_row's bin-range validation.
            valid = np.ones(n_rows, dtype=bool)
            for v, col in cols.items():
                valid &= (col >= 0) & (col < served.cards[v])
            n_valid = int(np.count_nonzero(valid))
            if n_valid == 0:
                reasons = ("every row has out-of-range bin states",)
        if reasons:
            reasons = tuple(reasons)
            return self._finish(
                ColumnarBatchResult(STATUS_REJECTED, n_rows, reasons=reasons),
                started,
            )
        if n_valid < n_rows:
            cols = {v: np.ascontiguousarray(c[valid]) for v, c in cols.items()}
        answer = served.chain.answer_batch(
            variables, cols, deadline=self._deadline()
        )
        return self._finish(
            ColumnarBatchResult(
                status=STATUS_OK,
                n_rows=n_rows,
                pmfs=answer.values,
                valid=None if n_valid == n_rows else valid,
                n_valid=n_valid,
                tier_rows=answer.tier_rows,
                **_provenance(answer),
            ),
            started,
        )

    # ------------------------------------------------------------------ #
    # Assessment surface
    # ------------------------------------------------------------------ #

    def violation_prob(
        self,
        threshold: float,
        predicted_means: "Mapping | None" = None,
    ) -> QueryResult:
        """Guarded ``P(D > threshold)``, optionally under predicted
        service means (the pAccel projection).

        The fallback chain answers the response-node pmf; the value is
        its tail above ``threshold``.
        """
        means = dict(predicted_means or {})
        reasons = (
            () if math.isfinite(threshold)
            else (f"threshold {threshold!r} is not finite",)
        )
        threshold = float(threshold)

        def tail(served: _Served, pmf: np.ndarray) -> float:
            edges = served.model.discretizer.edges(served.model.response)
            return tail_probability_from_pmf(pmf, edges, threshold)

        return self._call("violation_prob", None, means, tail, reasons=reasons)

    def project(self, predicted_means: Mapping) -> QueryResult:
        """Guarded pAccel projection (``value`` is a ``PAccelResult``)."""
        means = dict(predicted_means or {})
        return self._call(
            "project",
            None,
            means,
            lambda served, pmf: PAccelResult.from_pmf(
                means, pmf, served.model.discretizer, served.model.response
            ),
            reasons=() if means else ("empty evidence row",),
        )


def _count(result: "QueryResult | ColumnarBatchResult") -> None:
    """Count one outcome in the process metrics registry.

    A :class:`QueryResult` is one row; a :class:`ColumnarBatchResult`
    is ``n_rows`` rows, each counted like one :meth:`ModelServer.query`
    call: its masked-out rows as rejected (and in
    ``serving.rows_rejected``), each answered row under the tier that
    answered it and, when the batch was refused, every row with the
    batch.
    """
    tier_rows = None
    if isinstance(result, ColumnarBatchResult):
        n, n_answered = result.n_rows, result.n_valid
        tier_rows = result.tier_rows
    else:
        n = n_answered = 1
    status, tier = result.status, result.tier
    ok = status == STATUS_OK
    n_masked = n - n_answered if ok else 0
    m = _OBS.metrics
    m.counter("serving.queries").inc(n)
    m.counter(f"serving.status.{status}").inc(n_answered if ok else n)
    if n_masked:
        m.counter(f"serving.status.{STATUS_REJECTED}").inc(n_masked)
        m.counter("serving.rows_rejected").inc(n_masked)
    if ok and tier is not None:
        if tier_rows is None:
            m.counter(f"serving.tier.{tier}").inc(n_answered)
        else:
            for t, k in tier_rows.items():
                m.counter(f"serving.tier.{t}").inc(k)
        if result.tier_errors:
            m.counter("serving.degraded_answers").inc(n_answered)
    if status == STATUS_REJECTED:
        m.counter("serving.rejection_reasons").inc(len(result.reasons))
    if result.deadline_exceeded:
        m.counter("serving.deadline_misses").inc(n)
    if result.elapsed_seconds:
        m.histogram("serving.query.seconds").observe(result.elapsed_seconds)


def _provenance(answer: TierAnswer) -> dict:
    """How the chain answered, as result fields; the deadline counts as
    missed when a tier gave up on it."""
    return {
        "tier": answer.tier,
        "tier_errors": answer.tier_errors,
        "deadline_exceeded": "deadline exceeded" in answer.tier_errors.values(),
        "approximate": answer.approximate,
    }

