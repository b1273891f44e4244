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
- **sheds** load deterministically via per-tier circuit breakers and a
  seeded :class:`~repro.serving.breaker.AdmissionController` once the
  recent overload fraction crosses threshold.

The server can wrap a bare model or a
:class:`~repro.serving.registry.ModelRegistry` — in the latter case
:meth:`refresh` follows the registry's active version, which is how a
rollback propagates to the serving path.  The served version is one
:class:`_Served` snapshot that a swap replaces with a single attribute
assignment; every entry point reads it once, so a concurrent
:meth:`refresh` never mixes two versions in one answer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.apps.violation import tail_probability_from_pmf
from repro.bn.network import DiscreteBayesianNetwork, HybridResponseNetwork
from repro.exceptions import ServingError
from repro.obs.runtime import OBS as _OBS
from repro.serving.breaker import AdmissionController, CircuitBreaker
from repro.serving.fallback import (
    CHAIN,
    TIER_COMPILED,
    TIER_PRIOR,
    FallbackChain,
)
from repro.serving.guards import check_row
from repro.serving.registry import ModelRegistry
from repro.utils.rng import ensure_rng

#: Backend label for non-chain (continuous/analytic) answers.
TIER_ANALYTIC = "analytic"

STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_SHED = "shed"
STATUS_FAILED = "failed"


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

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class ServerStats:
    """Monotonic counters over the server's lifetime (thread-safe)."""

    n_queries: int = 0
    n_ok: int = 0
    n_rejected: int = 0
    n_shed: int = 0
    n_failed: int = 0
    n_deadline_exceeded: int = 0
    n_rows_rejected: int = 0
    tier_counts: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def _count(self, result: QueryResult) -> None:
        tier = result.tier
        # No call inside the lock: one would let the interpreter switch
        # threads while it is held, and concurrent queries would queue.
        with self._lock:
            self.n_queries += 1
            if result.status == STATUS_OK:
                self.n_ok += 1
                if tier is not None:
                    if tier in self.tier_counts:
                        self.tier_counts[tier] += 1
                    else:
                        self.tier_counts[tier] = 1
            elif result.status == STATUS_REJECTED:
                self.n_rejected += 1
            elif result.status == STATUS_SHED:
                self.n_shed += 1
            else:
                self.n_failed += 1
            if result.deadline_exceeded:
                self.n_deadline_exceeded += 1
        if _OBS.enabled:
            self._record_obs(result)

    def _count_columnar(self, result: ColumnarBatchResult) -> None:
        """Bulk accounting for one columnar batch: each input row counts
        exactly like one :meth:`ModelServer.query` call."""
        n = result.n_rows
        n_invalid = n - result.n_valid if result.status == STATUS_OK else 0
        with self._lock:
            self.n_queries += n
            if result.status == STATUS_OK:
                self.n_ok += result.n_valid
                self.n_rejected += n_invalid
                self.n_rows_rejected += n_invalid
                if result.tier is not None and result.n_valid:
                    self.tier_counts[result.tier] = (
                        self.tier_counts.get(result.tier, 0) + result.n_valid
                    )
            elif result.status == STATUS_REJECTED:
                self.n_rejected += n
            elif result.status == STATUS_SHED:
                self.n_shed += n
            else:
                self.n_failed += n
            if result.deadline_exceeded:
                self.n_deadline_exceeded += n
        if _OBS.enabled:
            m = _OBS.metrics
            m.counter("serving.queries").inc(n)
            if result.status == STATUS_OK:
                m.counter(f"serving.status.{STATUS_OK}").inc(result.n_valid)
                if n_invalid:
                    m.counter(f"serving.status.{STATUS_REJECTED}").inc(
                        n_invalid
                    )
                    m.counter("serving.rows_rejected").inc(n_invalid)
                if result.tier is not None and result.n_valid:
                    m.counter(f"serving.tier.{result.tier}").inc(
                        result.n_valid
                    )
            else:
                m.counter(f"serving.status.{result.status}").inc(n)
            if result.deadline_exceeded:
                m.counter("serving.deadline_misses").inc(n)
            if result.elapsed_seconds:
                m.histogram("serving.query.seconds").observe(
                    result.elapsed_seconds
                )

    def as_dict(self) -> dict:
        """Consistent point-in-time snapshot of every counter."""
        with self._lock:
            return {
                "n_queries": self.n_queries,
                "n_ok": self.n_ok,
                "n_rejected": self.n_rejected,
                "n_shed": self.n_shed,
                "n_failed": self.n_failed,
                "n_deadline_exceeded": self.n_deadline_exceeded,
                "n_rows_rejected": self.n_rows_rejected,
                "tier_counts": dict(self.tier_counts),
            }

    def _record_obs(self, result: QueryResult) -> None:
        """Mirror one outcome into the process metrics registry — the
        single choke point every ModelServer entry path flows through."""
        m = _OBS.metrics
        m.counter("serving.queries").inc()
        m.counter(f"serving.status.{result.status}").inc()
        if result.status == STATUS_OK and result.tier is not None:
            m.counter(f"serving.tier.{result.tier}").inc()
            if result.tier_errors:
                m.counter("serving.degraded_answers").inc()
        if result.deadline_exceeded:
            m.counter("serving.deadline_misses").inc()
        if result.status == STATUS_REJECTED:
            m.counter("serving.rejection_reasons").inc(len(result.reasons))
        if result.elapsed_seconds:
            m.histogram("serving.query.seconds").observe(
                result.elapsed_seconds
            )


@dataclass
class _Served:
    """One served model version and what the entry points derive from it.

    Built whole before a swap and never changed after, except for the
    lazily built ``assessor`` (racing first builds are both correct).
    """

    model: object
    version: "int | None"
    chain: "FallbackChain | None"   # None for continuous models
    known: frozenset                # node names, as strings
    cards: dict                     # node -> cardinality (discrete only)
    assessor: object = None         # RapidAssessor, built on first use


class ModelServer:
    """Resilient serving facade over a model or a model registry."""

    def __init__(
        self,
        source,
        *,
        deadline_seconds: "float | None" = None,
        n_fallback_samples: int = 1500,
        breaker_threshold: int = 3,
        breaker_cooldown: int = 25,
        admission: "AdmissionController | None" = None,
        rng=None,
    ):
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ServingError("deadline_seconds must be > 0 when set")
        self.deadline_seconds = deadline_seconds
        self.n_fallback_samples = int(n_fallback_samples)
        self.rng = ensure_rng(rng)
        self.admission = admission
        self.breakers = {
            tier: CircuitBreaker(breaker_threshold, breaker_cooldown, name=tier)
            for tier in (*CHAIN[:-1], TIER_ANALYTIC)
        }
        self.stats = ServerStats()
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

    @property
    def registry(self) -> "ModelRegistry | None":
        return self._registry

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
        if model is None:
            raise ServingError("ModelServer needs a model to serve")
        network = model.network
        if isinstance(network, DiscreteBayesianNetwork):
            chain = FallbackChain(
                network,
                rng=self.rng,
                n_samples=self.n_fallback_samples,
                breakers=self.breakers,
            )
        else:
            chain = None
        # One reference assignment: a query in flight keeps the snapshot
        # it read, and the next one sees the whole new version.
        self._served = _Served(
            model=model,
            version=version,
            chain=chain,
            known=frozenset(map(str, network.nodes)),
            cards=network.cardinalities if chain is not None else {},
        )

    @property
    def chain(self) -> "FallbackChain | None":
        """The discrete fallback chain (None for continuous models)."""
        return self._served.chain

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _deadline(self) -> "float | None":
        if self.deadline_seconds is None:
            return None
        return time.monotonic() + self.deadline_seconds

    def _finish(self, result: QueryResult, started: float) -> QueryResult:
        result.elapsed_seconds = time.monotonic() - started
        self.stats._count(result)
        if self.admission is not None and result.status != STATUS_SHED:
            self.admission.record(
                result.deadline_exceeded or result.status == STATUS_FAILED
            )
        return result

    def _admit(self, started: float) -> "QueryResult | None":
        if self.admission is not None and not self.admission.admit():
            return self._finish(
                QueryResult(
                    status=STATUS_SHED,
                    reasons=("admission control: server overloaded",),
                ),
                started,
            )
        return None

    @staticmethod
    def _to_states(served: _Served, row: Mapping, binned: bool) -> dict:
        """Clean raw-mean or binned row → bin-state evidence."""
        if binned:
            return {str(k): int(v) for k, v in row.items()}
        disc = served.model.discretizer
        return {
            str(k): disc.state_of(str(k), float(v)) for k, v in row.items()
        }

    def _reject(self, reasons, started) -> QueryResult:
        return self._finish(
            QueryResult(status=STATUS_REJECTED, reasons=tuple(reasons)), started
        )

    @staticmethod
    def _discrete_only(
        served: _Served, what: str, binned: bool
    ) -> "tuple[str, ...]":
        if served.chain is None:
            return (
                f"{what} requires a discrete model; the active model is "
                f"{served.model.report.model_kind!r}",
            )
        if not binned and not binnable(served.model):
            return (
                f"{what} requires the model's discretizer for raw evidence",
            )
        return ()

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
        started = time.monotonic()
        shed = self._admit(started)
        if shed is not None:
            return shed
        served = self._served
        unsupported = self._discrete_only(served, "query", binned)
        if unsupported:
            return self._reject(unsupported, started)
        reasons = check_row(
            dict(evidence or {}),
            known=served.known,
            cards=served.cards,
            forbid=set(map(str, variables)),
            binned=binned,
            require_nonempty=False,
        )
        bad_vars = [str(v) for v in variables if str(v) not in served.known]
        if bad_vars:
            reasons = reasons + tuple(
                f"unknown query variable {v!r}" for v in bad_vars
            )
        if not variables:
            reasons = reasons + ("need at least one query variable",)
        if reasons:
            return self._reject(reasons, started)
        deadline = self._deadline()
        states = self._to_states(served, dict(evidence or {}), binned)
        answer = served.chain.answer(variables, states, deadline=deadline)
        return self._finish(
            QueryResult(
                status=STATUS_OK,
                value=answer.values,
                tier=answer.tier,
                tier_errors=answer.tier_errors,
                deadline_exceeded=_missed_deadline(answer.tier_errors),
                approximate=answer.approximate,
            ),
            started,
        )

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
        hold many evidence rows at once.  Raw measurement means are
        binned by the caller (``model.discretizer.state_of``) first.

        Rows with out-of-range states are rejected via the ``valid``
        mask while the clean rows still answer.  When the batch kernel
        fails, its breaker is open or the deadline has passed, each
        valid row walks the fallback chain on its own, exactly like a
        :meth:`query` call; the batch kernel is not retried.
        Accounting is bulk but row-equivalent: each input row counts as
        one query in :class:`ServerStats`; admission is one decision
        and one recorded outcome per *call* (the whole batch is admitted
        or shed as a unit).
        """
        started = time.monotonic()
        served = self._served
        cols: dict[str, np.ndarray] = {}
        sizes: dict[str, int] = {}
        bad_cols: list[str] = []
        for v, col in columns.items():
            v = str(v)
            arr = np.asarray(col).reshape(-1)
            sizes[v] = arr.size
            if arr.dtype.kind not in "iu":
                bad_cols.append(f"column {v!r} is not integer-typed")
                continue
            cols[v] = arr
        n_rows = max(sizes.values(), default=0)
        if self.admission is not None and not self.admission.admit():
            result = ColumnarBatchResult(
                status=STATUS_SHED,
                n_rows=n_rows,
                reasons=("admission control: server overloaded",),
                elapsed_seconds=time.monotonic() - started,
            )
            self.stats._count_columnar(result)
            return result

        def _rejected(reasons: tuple) -> ColumnarBatchResult:
            result = ColumnarBatchResult(
                status=STATUS_REJECTED,
                n_rows=n_rows,
                reasons=reasons,
                elapsed_seconds=time.monotonic() - started,
            )
            self.stats._count_columnar(result)
            if self.admission is not None:
                self.admission.record(False)
            return result

        unsupported = self._discrete_only(
            served, "query_batch_columns", binned=True
        )
        if unsupported:
            return _rejected(unsupported)
        reasons = list(bad_cols)
        variables = tuple(map(str, variables))
        known = served.known
        for v in variables:
            if v not in known:
                reasons.append(f"unknown query variable {v!r}")
            elif v in cols:
                reasons.append(f"variable {v!r} may not appear in evidence")
        for v in cols:
            if v not in known:
                reasons.append(f"unknown variable {v!r}")
        if not variables:
            reasons.append("need at least one query variable")
        if not cols and not reasons:
            reasons.append("empty evidence columns")
        if any(size != n_rows for size in sizes.values()):
            reasons.append(f"evidence columns have mismatched lengths {sizes}")
        if reasons:
            return _rejected(tuple(reasons))
        # Vectorized per-row domain check — the columnar analogue of
        # check_row's bin-range validation.
        valid = np.ones(n_rows, dtype=bool)
        for v, col in cols.items():
            valid &= (col >= 0) & (col < served.cards[v])
        n_valid = int(np.count_nonzero(valid))
        if n_valid == 0:
            return _rejected(("every row has out-of-range bin states",))
        if n_valid < n_rows:
            run_cols = {v: np.ascontiguousarray(c[valid]) for v, c in cols.items()}
        else:
            run_cols = cols
        deadline = self._deadline()
        breaker = self.breakers[TIER_COMPILED]
        result: "ColumnarBatchResult | None" = None
        if deadline is not None and time.monotonic() > deadline:
            tier_errors = {TIER_COMPILED: "deadline exceeded"}
        elif not breaker.allow():
            tier_errors = {TIER_COMPILED: "circuit open"}
        else:
            try:
                pmfs = served.chain.engine.query_batch(variables, run_cols)
            except Exception as exc:
                breaker.record_failure()
                tier_errors = {TIER_COMPILED: f"{type(exc).__name__}: {exc}"}
            else:
                breaker.record_success()
                result = ColumnarBatchResult(
                    status=STATUS_OK,
                    n_rows=n_rows,
                    pmfs=pmfs,
                    valid=None if n_valid == n_rows else valid,
                    n_valid=n_valid,
                    tier=TIER_COMPILED,
                )
        if result is None:
            # Degraded: each valid row walks the chain on its own, so
            # engine faults and zero-probability rows resolve per row.
            answers = [
                served.chain.answer(
                    variables,
                    {v: int(c[j]) for v, c in run_cols.items()},
                    deadline=deadline,
                )
                for j in range(n_valid)
            ]
            result = ColumnarBatchResult(
                status=STATUS_OK,
                n_rows=n_rows,
                pmfs=np.stack([a.values for a in answers]),
                valid=None if n_valid == n_rows else valid,
                n_valid=n_valid,
                tier=answers[0].tier,
                tier_errors=tier_errors,
                deadline_exceeded=_missed_deadline(tier_errors)
                or any(_missed_deadline(a.tier_errors) for a in answers),
                approximate=any(a.approximate for a in answers),
            )
        result.elapsed_seconds = time.monotonic() - started
        self.stats._count_columnar(result)
        if self.admission is not None:
            self.admission.record(result.deadline_exceeded)
        return result

    # ------------------------------------------------------------------ #
    # Assessment surface (all model families)
    # ------------------------------------------------------------------ #

    def violation_prob(
        self,
        threshold: float,
        predicted_means: "Mapping | None" = None,
    ) -> QueryResult:
        """Guarded ``P(D > threshold)``, optionally under predicted
        service means (the pAccel projection).

        Discrete models answer through the fallback chain (response-node
        pmf tail); continuous models through the analytic assessor,
        breaker-guarded.
        """
        started = time.monotonic()
        shed = self._admit(started)
        if shed is not None:
            return shed
        if not np.isfinite(threshold):
            return self._reject(
                (f"threshold {threshold!r} is not finite",), started
            )
        served = self._served
        response = served.model.response
        means = dict(predicted_means or {})
        reasons = check_row(
            means,
            known=served.known,
            forbid={response},
            binned=False,
            require_nonempty=False,
        )
        if reasons:
            return self._reject(reasons, started)
        if served.chain is not None:
            disc = served.model.discretizer
            if disc is None:
                return self._reject(
                    ("discrete model has no discretizer",), started
                )
            states = self._to_states(served, means, binned=False)
            answer = served.chain.answer(
                [response], states, deadline=self._deadline()
            )
            prob = tail_probability_from_pmf(
                answer.values, disc.edges(response), float(threshold)
            )
            return self._finish(
                QueryResult(
                    status=STATUS_OK,
                    value=prob,
                    tier=answer.tier,
                    tier_errors=answer.tier_errors,
                    deadline_exceeded=_missed_deadline(answer.tier_errors),
                    approximate=answer.approximate,
                ),
                started,
            )
        return self._analytic(
            lambda: self._violation_analytic(served, float(threshold), means),
            started,
        )

    def project(self, predicted_means: Mapping) -> QueryResult:
        """Guarded pAccel projection (``value`` is a ``PAccelResult``)."""
        started = time.monotonic()
        shed = self._admit(started)
        if shed is not None:
            return shed
        served = self._served
        means = dict(predicted_means or {})
        reasons = check_row(
            means,
            known=served.known,
            forbid={served.model.response},
            binned=False,
        )
        if reasons:
            return self._reject(reasons, started)
        from repro.apps.paccel import PAccel

        if served.chain is not None:
            # Route the discrete projection's posterior through the chain
            # so engine faults degrade instead of raising.
            disc = served.model.discretizer
            response = served.model.response
            states = self._to_states(served, means, binned=False)
            answer = served.chain.answer(
                [response], states, deadline=self._deadline()
            )
            from repro.apps.paccel import PAccelResult

            centers = disc.centers(response)
            mean = float(np.dot(answer.values, centers))
            std = float(
                np.sqrt(max(np.dot(answer.values, (centers - mean) ** 2), 0.0))
            )
            result = PAccelResult(
                evidence=means,
                edges=disc.edges(response),
                pmf=answer.values,
                mean=mean,
                std=std,
            )
            return self._finish(
                QueryResult(
                    status=STATUS_OK,
                    value=result,
                    tier=answer.tier,
                    tier_errors=answer.tier_errors,
                    deadline_exceeded=_missed_deadline(answer.tier_errors),
                    approximate=answer.approximate,
                ),
                started,
            )
        return self._analytic(
            lambda: PAccel(served.model).project(means, rng=self.rng), started
        )

    # ------------------------------------------------------------------ #

    def _violation_analytic(
        self, served: _Served, threshold: float, means: dict
    ) -> float:
        if isinstance(served.model.network, HybridResponseNetwork):
            if served.assessor is None:
                from repro.apps.assessment import RapidAssessor

                served.assessor = RapidAssessor(served.model)
            return float(
                served.assessor.violation_probability(threshold, means or None)
            )
        from repro.apps.paccel import PAccel

        pa = PAccel(served.model)
        result = pa.project(means, rng=self.rng) if means else pa.baseline(
            rng=self.rng
        )
        return float(result.violation_probability(threshold))

    def _analytic(self, compute, started: float) -> QueryResult:
        """Breaker-guarded single-backend (continuous) evaluation."""
        breaker = self.breakers[TIER_ANALYTIC]
        if not breaker.allow():
            return self._finish(
                QueryResult(
                    status=STATUS_FAILED,
                    tier_errors={TIER_ANALYTIC: "circuit open"},
                ),
                started,
            )
        try:
            value = compute()
        except Exception as exc:
            breaker.record_failure()
            return self._finish(
                QueryResult(
                    status=STATUS_FAILED,
                    tier_errors={
                        TIER_ANALYTIC: f"{type(exc).__name__}: {exc}"
                    },
                ),
                started,
            )
        breaker.record_success()
        return self._finish(
            QueryResult(status=STATUS_OK, value=value, tier=TIER_ANALYTIC),
            started,
        )


def _missed_deadline(tier_errors: Mapping) -> bool:
    """Whether a tier gave up because the call's deadline had passed."""
    return any("deadline" in e for e in tier_errors.values())


def binnable(model) -> bool:
    """Can raw-mean evidence be discretized for this model?"""
    return model.discretizer is not None
