"""The guarded query front-end: :class:`ModelServer`.

This is the one door through which autonomic components query a live
model.  Every entry point:

- **validates** evidence through :mod:`repro.serving.guards` (unknown
  variables, NaN means, out-of-range bins → per-row rejection with
  reasons, never a crash);
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
rollback propagates to the serving path.
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
from repro.serving.guards import RowRejection, check_row, sanitize_rows
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
        with self._lock:
            self.n_queries += 1
            if result.status == STATUS_OK:
                self.n_ok += 1
                if result.tier is not None:
                    self.tier_counts[result.tier] = (
                        self.tier_counts.get(result.tier, 0) + 1
                    )
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

    def count_rows_rejected(self, n: int) -> None:
        with self._lock:
            self.n_rows_rejected += int(n)

    def _count_columnar(self, result: ColumnarBatchResult) -> None:
        """Bulk accounting for one columnar batch: each input row counts
        exactly like one query through the row-wise path."""
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
        self._model = None
        self._version: "int | None" = None
        self._chain: "FallbackChain | None" = None
        self._assessor = None
        self._model_lock = threading.Lock()
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
        return self._model

    @property
    def version(self) -> "int | None":
        """Registry version currently served (None for a bare model)."""
        return self._version

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
        if active != self._version:
            self._set_model(self._registry.load(active), version=active)
        return self._version

    def _set_model(self, model, version: "int | None") -> None:
        if model is None:
            raise ServingError("ModelServer needs a model to serve")
        # Build the new chain before swapping, then publish model + chain
        # under the lock so a concurrent query never observes a model
        # paired with the previous model's chain.
        if isinstance(model.network, DiscreteBayesianNetwork):
            chain = FallbackChain(
                model.network,
                rng=self.rng,
                n_samples=self.n_fallback_samples,
                breakers=self.breakers,
            )
        else:
            chain = None
        with self._model_lock:
            self._model = model
            self._version = version
            self._assessor = None
            self._chain = chain

    @property
    def chain(self) -> "FallbackChain | None":
        """The discrete fallback chain (None for continuous models)."""
        return self._chain

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _deadline(self) -> "float | None":
        if self.deadline_seconds is None:
            return None
        return time.monotonic() + self.deadline_seconds

    def _known(self) -> frozenset:
        return frozenset(map(str, self._model.network.nodes))

    def _cards(self) -> dict:
        return self._model.network.cardinalities

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

    def _to_states(self, row: Mapping, binned: bool) -> dict:
        """Clean raw-mean or binned row → bin-state evidence."""
        if binned:
            return {str(k): int(v) for k, v in row.items()}
        disc = self._model.discretizer
        return {
            str(k): disc.state_of(str(k), float(v)) for k, v in row.items()
        }

    def _reject(self, reasons, started) -> QueryResult:
        return self._finish(
            QueryResult(status=STATUS_REJECTED, reasons=tuple(reasons)), started
        )

    def _discrete_only(self, what: str, binned: bool) -> "tuple[str, ...]":
        if self._chain is None:
            return (
                f"{what} requires a discrete model; the active model is "
                f"{self._model.report.model_kind!r}",
            )
        if not binned and not binnable(self._model):
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
        unsupported = self._discrete_only("query", binned)
        if unsupported:
            return self._reject(unsupported, started)
        reasons = check_row(
            dict(evidence or {}),
            known=self._known(),
            cards=self._cards(),
            forbid=set(map(str, variables)),
            binned=binned,
            require_nonempty=False,
        )
        bad_vars = [
            str(v) for v in variables if str(v) not in self._known()
        ]
        if bad_vars:
            reasons = reasons + tuple(
                f"unknown query variable {v!r}" for v in bad_vars
            )
        if not variables:
            reasons = reasons + ("need at least one query variable",)
        if reasons:
            return self._reject(reasons, started)
        deadline = self._deadline()
        states = self._to_states(dict(evidence or {}), binned)
        answer = self._chain.answer(variables, states, deadline=deadline)
        return self._finish(
            QueryResult(
                status=STATUS_OK,
                value=answer.values,
                tier=answer.tier,
                tier_errors=answer.tier_errors,
                deadline_exceeded=any(
                    "deadline" in e for e in answer.tier_errors.values()
                ),
                approximate=answer.approximate,
            ),
            started,
        )

    def query_batch(
        self,
        variables: Sequence[str],
        rows: "Sequence[Mapping]",
        binned: bool = False,
    ) -> "list[QueryResult]":
        """Guarded batch query: one :class:`QueryResult` per input row.

        Bad rows are rejected individually (with reasons) while clean
        rows are answered; clean rows sharing an evidence signature go
        through the engine's vectorized batch kernel when it is healthy,
        and degrade row-by-row through the chain when it is not.

        Accounting is row-equivalent to the single-query path: every
        row is finished through :meth:`_finish`, so each gets its own
        (distinct) result object with ``elapsed_seconds`` set, each is
        tallied once in :class:`ServerStats`, and each feeds one
        :meth:`AdmissionController.record` outcome — a batch of N rows
        updates stats and admission exactly like N ``query`` calls.
        """
        started = time.monotonic()
        rows = list(rows)
        results: "list[QueryResult | None]" = [None] * len(rows)
        # Per-row admission, mirroring the single-query path: each shed
        # row is a *distinct* result counted once (never N aliases of
        # one mutable QueryResult counted once total).
        if self.admission is not None:
            admitted = []
            for i in range(len(rows)):
                if self.admission.admit():
                    admitted.append(i)
                else:
                    results[i] = self._finish(
                        QueryResult(
                            status=STATUS_SHED,
                            reasons=(
                                "admission control: server overloaded",
                            ),
                        ),
                        started,
                    )
        else:
            admitted = list(range(len(rows)))
        if not admitted:
            return [r for r in results if r is not None]
        unsupported = self._discrete_only("query_batch", binned)
        if unsupported:
            for i in admitted:
                results[i] = self._reject(unsupported, started)
            return [r for r in results if r is not None]
        sanitized = sanitize_rows(
            [rows[i] for i in admitted],
            known=self._known(),
            cards=self._cards(),
            forbid=set(map(str, variables)),
            binned=binned,
        )
        self.stats.count_rows_rejected(sanitized.n_rejected)
        if _OBS.enabled and sanitized.n_rejected:
            _OBS.metrics.counter("serving.rows_rejected").inc(
                sanitized.n_rejected
            )
        # Per-row rejections go through the same finishing path as the
        # single-query `_reject`: elapsed_seconds is stamped, the row is
        # tallied, and the admission controller sees the outcome.
        for rejection in sanitized.rejections:
            results[admitted[rejection.index]] = self._reject(
                rejection.reasons, started
            )
        deadline = self._deadline()
        # Group accepted rows by evidence signature — that *is* the
        # compiled batch signature.
        groups: dict[tuple, list[int]] = {}
        for j, row in enumerate(sanitized.rows):
            groups.setdefault(tuple(sorted(row)), []).append(j)
        for signature, members in groups.items():
            state_rows = [
                self._to_states(sanitized.rows[j], binned) for j in members
            ]
            answers = self._batch_group(variables, state_rows, deadline)
            for j, answer in zip(members, answers):
                results[admitted[sanitized.kept_indices[j]]] = self._finish(
                    answer, started
                )
        out = []
        for r in results:
            assert r is not None
            out.append(r)
        return out

    def query_batch_columns(
        self,
        variables: Sequence[str],
        columns: "Mapping[str, Sequence[int]]",
    ) -> ColumnarBatchResult:
        """Columnar fast path: N binned same-signature rows, O(1) objects.

        ``columns`` maps variable → integer bin-state column (all the
        same length).  Validation is vectorized (per-column bounds
        checks instead of per-row dict sweeps) and the answer is one
        :class:`ColumnarBatchResult` instead of N ``QueryResult``\\ s,
        so the guarded overhead stays within a small constant factor of
        the raw engine kernel — this is the bulk lane for callers that
        hold many evidence rows at once.

        Rows with out-of-range states are rejected via the ``valid``
        mask while the clean rows still answer.  Engine faults degrade
        through the row-wise chain exactly like :meth:`query_batch`.
        Accounting is bulk but row-equivalent: each input row counts as
        one query in :class:`ServerStats`; admission is one decision
        and one recorded outcome per *call* (documented deviation — the
        whole batch is admitted or shed as a unit).
        """
        started = time.monotonic()
        cols: dict[str, np.ndarray] = {}
        sizes: dict[str, int] = {}
        bad_cols: list[str] = []
        cards = self._cards()
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

        unsupported = self._discrete_only("query_batch", binned=True)
        if unsupported:
            return _rejected(unsupported)
        reasons = list(bad_cols)
        variables = tuple(map(str, variables))
        known = self._known()
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
            valid &= (col >= 0) & (col < cards[v])
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
        if (
            deadline is None or time.monotonic() <= deadline
        ) and breaker.allow():
            try:
                pmfs = self._chain.engine.query_batch(variables, run_cols)
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
        else:
            tier_errors = {TIER_COMPILED: "circuit open"}
        if result is None:
            # Degraded: replay the valid rows through the row-wise chain
            # (same fallback semantics as query_batch's slow path).
            state_rows = [
                {v: int(run_cols[v][j]) for v in run_cols}
                for j in range(n_valid)
            ]
            answers = self._batch_group(variables, state_rows, deadline)
            if all(a.status == STATUS_OK for a in answers):
                result = ColumnarBatchResult(
                    status=STATUS_OK,
                    n_rows=n_rows,
                    pmfs=np.stack([np.asarray(a.value) for a in answers]),
                    valid=None if n_valid == n_rows else valid,
                    n_valid=n_valid,
                    tier=answers[0].tier if answers else None,
                    tier_errors=dict(tier_errors),
                    deadline_exceeded=any(
                        a.deadline_exceeded for a in answers
                    ),
                    approximate=any(a.approximate for a in answers),
                )
            else:
                errors = dict(tier_errors)
                for a in answers:
                    errors.update(a.tier_errors)
                result = ColumnarBatchResult(
                    status=STATUS_FAILED,
                    n_rows=n_rows,
                    tier_errors=errors,
                )
        result.elapsed_seconds = time.monotonic() - started
        self.stats._count_columnar(result)
        if self.admission is not None:
            self.admission.record(
                result.deadline_exceeded or result.status == STATUS_FAILED
            )
        return result

    def _batch_group(
        self, variables, state_rows, deadline
    ) -> "list[QueryResult]":
        """Answer one same-signature group, vectorized when possible."""
        breaker = self.breakers[TIER_COMPILED]
        engine = self._chain.engine
        if (
            (deadline is None or time.monotonic() <= deadline)
            and state_rows[0]  # engine batch kernel needs evidence
            and breaker.allow()
        ):
            try:
                # Same-signature group → hand the engine columnar intp
                # arrays, skipping its per-row dict fallback entirely.
                columns = {
                    v: np.fromiter(
                        (row[v] for row in state_rows),
                        dtype=np.intp,
                        count=len(state_rows),
                    )
                    for v in state_rows[0]
                }
                pmfs = engine.query_batch(variables, columns)
            except Exception:
                breaker.record_failure()
            else:
                breaker.record_success()
                return [
                    QueryResult(
                        status=STATUS_OK, value=pmf, tier=TIER_COMPILED
                    )
                    for pmf in pmfs
                ]
        # Degraded: row-by-row through the chain (zero-probability rows
        # and engine faults then resolve per row instead of poisoning
        # the whole batch).
        out = []
        for states in state_rows:
            try:
                answer = self._chain.answer(
                    variables, states, deadline=deadline
                )
            except Exception as exc:  # pragma: no cover - chain is terminal
                out.append(
                    QueryResult(
                        status=STATUS_FAILED,
                        tier_errors={"chain": f"{type(exc).__name__}: {exc}"},
                    )
                )
                continue
            out.append(
                QueryResult(
                    status=STATUS_OK,
                    value=answer.values,
                    tier=answer.tier,
                    tier_errors=answer.tier_errors,
                    deadline_exceeded=any(
                        "deadline" in e for e in answer.tier_errors.values()
                    ),
                    approximate=answer.approximate,
                )
            )
        return out

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
        response = self._model.response
        means = dict(predicted_means or {})
        reasons = check_row(
            means,
            known=self._known(),
            forbid={response},
            binned=False,
            require_nonempty=False,
        )
        if reasons:
            return self._reject(reasons, started)
        if self._chain is not None:
            disc = self._model.discretizer
            if disc is None:
                return self._reject(
                    ("discrete model has no discretizer",), started
                )
            states = self._to_states(means, binned=False)
            answer = self._chain.answer(
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
                    deadline_exceeded=any(
                        "deadline" in e for e in answer.tier_errors.values()
                    ),
                    approximate=answer.approximate,
                ),
                started,
            )
        return self._analytic(
            lambda: self._violation_analytic(float(threshold), means), started
        )

    def project(self, predicted_means: Mapping) -> QueryResult:
        """Guarded pAccel projection (``value`` is a ``PAccelResult``)."""
        started = time.monotonic()
        shed = self._admit(started)
        if shed is not None:
            return shed
        means = dict(predicted_means or {})
        reasons = check_row(
            means,
            known=self._known(),
            forbid={self._model.response},
            binned=False,
        )
        if reasons:
            return self._reject(reasons, started)
        from repro.apps.paccel import PAccel

        if self._chain is not None:
            # Route the discrete projection's posterior through the chain
            # so engine faults degrade instead of raising.
            disc = self._model.discretizer
            response = self._model.response
            states = self._to_states(means, binned=False)
            answer = self._chain.answer(
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
                    approximate=answer.approximate,
                ),
                started,
            )
        return self._analytic(
            lambda: PAccel(self._model).project(means, rng=self.rng), started
        )

    # ------------------------------------------------------------------ #

    def _violation_analytic(self, threshold: float, means: dict) -> float:
        if isinstance(self._model.network, HybridResponseNetwork):
            if self._assessor is None:
                from repro.apps.assessment import RapidAssessor

                self._assessor = RapidAssessor(self._model)
            return float(
                self._assessor.violation_probability(threshold, means or None)
            )
        from repro.apps.paccel import PAccel

        pa = PAccel(self._model)
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


def binnable(model) -> bool:
    """Can raw-mean evidence be discretized for this model?"""
    return model.discretizer is not None
