"""Compile-once inference engine for discrete networks.

:func:`repro.bn.inference.variable_elimination.query` pays the full
price on every call: CPD→factor extraction, a min-fill ordering sweep,
and a chain of Python-level factor products.  That is the right tool for
one-off queries, but the serving surfaces (dComp, pAccel, problem
localization, the autonomic-manager loop) fire many queries against the
*same* model with only the evidence changing — exactly the regime the
paper targets with cheap model construction.

:class:`CompiledDiscreteModel` amortizes everything that does not depend
on the evidence *values*:

- CPD factors are extracted once at compile time (``DeterministicCPD``
  table expansion is the single most expensive step of a scratch query);
- for every ``(query-variables, evidence-pattern)`` signature a
  :class:`_QueryPlan` is built once and kept in a bounded LRU cache:
  evidence **values** are array inputs at execution time, never part of
  the plan key, so repeated query *shapes* skip all validation and
  dispatch;
- each plan contracts the CPD factors down to the **joint table**
  ``P(evidence-vars, query-vars)`` with a pairwise contraction schedule
  chosen by greedy/DP search over factor sizes
  (:mod:`repro.bn.inference.contraction` — in-repo, stdlib+numpy, no
  52-variable einsum cap).  The table is evidence-value independent, so
  a single query is a stride computation plus one gather, and
  :meth:`query_batch` answers N rows with one vectorized ``take`` —
  no per-row Python and no per-row contraction;
- signatures whose joint table would exceed ``max_joint_entries`` fall
  back to replaying the (cached) contraction schedule against
  evidence-sliced operands — still one vectorized pass per batch.  A
  signature the planner cannot schedule at all raises
  :class:`~repro.exceptions.InferenceError`; the serving fallback chain
  answers it exactly with variable elimination;
- :meth:`query_batch` accepts columnar integer evidence directly and
  never copies columns that already are 1-D integer arrays; an optional
  ``dtype=np.float32`` runs the batch in single precision (documented
  deviation bound :data:`FLOAT32_MAX_DEVIATION`);
- evidence-free marginals (the dComp/pAccel priors) are cached per
  variable by :meth:`prior`.

The engine treats the network as immutable — compile a new engine if
CPDs are refit (network construction already builds fresh objects
everywhere in this codebase).  Plan-cache bookkeeping (the LRU ordered
dict, hit/compile/eviction counters) is guarded by a per-engine lock so
concurrent callers cannot corrupt the recency order or evict a plan
mid-lookup; plan *construction* happens outside the lock,
so on a racing miss two threads may build the same plan once each — the
loser's build is discarded and counted as a hit, never double-inserted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.bn.factors import DiscreteFactor
from repro.bn.inference.contraction import (
    Schedule,
    execute_schedule,
    plan_contraction,
)
from repro.exceptions import InferenceError
from repro.obs.runtime import OBS as _OBS

#: Default LRU bound on cached query plans.  Adversarial query mixes
#: (every request a fresh signature) otherwise grow the cache without
#: limit; 256 covers every signature the serving layer emits today with
#: two orders of magnitude to spare.
DEFAULT_PLAN_CACHE_SIZE = 256

#: Default ceiling on precomputed joint-table sizes (entries, not
#: bytes): 2**20 float64 entries is 8 MiB per plan.  Signatures above
#: the ceiling use the evidence-sliced contraction path instead.
DEFAULT_MAX_JOINT_ENTRIES = 1 << 20

#: Documented bound on ``query_batch(..., dtype=np.float32)`` deviation
#: from the float64 path for normalized posteriors.  Gathering from a
#: float32 joint table rounds each entry once (2**-24 relative) and the
#: normalization adds a few ulps; benchmarks and tests assert it.
FLOAT32_MAX_DEVIATION = 5e-6

#: Synthetic variable name for the batch axis in sliced-path schedules.
#: NUL is not a legal network variable name, so it can never collide.
_BATCH_VAR = "\x00batch"

#: Nominal batch length used for planning sliced batch schedules (the
#: schedule is shared across batch sizes; relative step costs are what
#: matters, not the exact N).
_NOMINAL_BATCH = 1024


class _QueryPlan:
    """Everything reusable across queries sharing one (Q, E) signature."""

    __slots__ = (
        "variables",
        "evidence_vars",
        "ev_cards",
        "ev_strides",
        "out_shape",
        "out_size",
        "joint",              # (n_ev_states, out_size) float64 or None
        "joint_f32",          # lazily cast float32 twin of ``joint``
        "operands",           # list[(values, ev_vars, free_vars)]
        "operands_f32",       # lazily cast float32 operand tables
        "schedule_single",    # sliced-path schedule (joint too big)
        "schedule_batch",
    )

    def __init__(self, variables, evidence_vars, ev_cards, out_shape):
        self.variables = variables
        self.evidence_vars = evidence_vars
        self.ev_cards = ev_cards
        strides = []
        acc = 1
        for c in reversed(ev_cards):
            strides.append(acc)
            acc *= c
        self.ev_strides = tuple(reversed(strides))
        self.out_shape = out_shape
        self.out_size = int(np.prod(out_shape)) if out_shape else 1
        self.joint = None
        self.joint_f32 = None
        self.operands = None
        self.operands_f32 = None
        self.schedule_single = None
        self.schedule_batch = None


class CompiledDiscreteModel:
    """A :class:`DiscreteBayesianNetwork` compiled for repeated queries."""

    def __init__(
        self,
        network,
        *,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        max_joint_entries: int = DEFAULT_MAX_JOINT_ENTRIES,
    ):
        from repro.bn.inference.variable_elimination import network_factors

        if plan_cache_size < 1:
            raise InferenceError("plan_cache_size must be >= 1")
        if max_joint_entries < 1:
            raise InferenceError("max_joint_entries must be >= 1")
        self._nodes: tuple[str, ...] = tuple(map(str, network.nodes))
        self._cards: dict[str, int] = dict(network.cardinalities)
        self._factors: tuple[DiscreteFactor, ...] = tuple(network_factors(network))
        self._scopes: tuple[tuple[str, ...], ...] = tuple(
            f.variables for f in self._factors
        )
        self._plans: "OrderedDict[tuple, _QueryPlan]" = OrderedDict()
        self._cache_lock = threading.Lock()
        self._plan_cache_size = int(plan_cache_size)
        self._max_joint_entries = int(max_joint_entries)
        self._priors: dict[str, DiscreteFactor] = {}
        self._hits = 0
        self._compiles = 0
        self._evictions = 0
        self._joint_tables = 0
        self._joint_entries = 0
        #: Failure-signalling hook for the serving layer: when set, it is
        #: invoked as ``hook(kind, variables, evidence)`` at the top of
        #: every evidence query (``kind`` is ``"query"`` or ``"batch"``).
        #: An exception raised by the hook propagates exactly like an
        #: internal engine fault, which is what chaos tests use to inject
        #: deterministic engine failures without monkeypatching numerics.
        self.failure_hook = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def cardinalities(self) -> dict[str, int]:
        return dict(self._cards)

    @property
    def n_cached_plans(self) -> int:
        return len(self._plans)

    @property
    def plan_cache_capacity(self) -> int:
        return self._plan_cache_size

    def cardinality(self, variable: str) -> int:
        try:
            return self._cards[str(variable)]
        except KeyError:
            raise InferenceError(f"unknown variable {variable!r}") from None

    def cache_stats(self) -> dict:
        """Plan-cache tiers at a glance (for serving status surfaces)."""
        with self._cache_lock:
            return {
                "plans": len(self._plans),
                "capacity": self._plan_cache_size,
                "hits": self._hits,
                "compiles": self._compiles,
                "evictions": self._evictions,
                "joint_tables": self._joint_tables,
                "joint_entries": self._joint_entries,
            }

    # ------------------------------------------------------------------ #
    # Plan compilation
    # ------------------------------------------------------------------ #

    def _validate(self, variables: Sequence[str], evidence_vars: Iterable[str]) -> None:
        unknown = (set(variables) | set(evidence_vars)) - set(self._nodes)
        if unknown:
            raise InferenceError(f"unknown variables {sorted(unknown)}")
        overlap = set(variables) & set(evidence_vars)
        if overlap:
            raise InferenceError(f"variables also in evidence: {sorted(overlap)}")
        if not variables:
            raise InferenceError("need at least one query variable")
        if len(set(variables)) != len(variables):
            raise InferenceError(f"duplicate query variables: {list(variables)}")

    def _lookup(self, key: tuple) -> "_QueryPlan | None":
        with self._cache_lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self._hits += 1
        if plan is not None and _OBS.enabled:
            _OBS.metrics.counter("engine.plan.cache_hits").inc()
        return plan

    def _compile(self, key: tuple, variables: tuple, evidence_vars) -> _QueryPlan:
        """Build, cache (with LRU eviction), and return a plan.

        The expensive build happens outside the cache lock; insertion,
        eviction, and the counters happen under it.  A racing thread
        that compiled the same key first wins — this thread's build is
        discarded and its lookup counts as a hit.
        """
        self._validate(variables, evidence_vars)

        ev_order = tuple(sorted(evidence_vars))
        plan = _QueryPlan(
            variables=variables,
            evidence_vars=ev_order,
            ev_cards=tuple(self._cards[v] for v in ev_order),
            out_shape=tuple(self._cards[v] for v in variables),
        )
        output = ev_order + variables
        n_ev_states = 1
        for c in plan.ev_cards:
            n_ev_states *= c
        joint_entries = n_ev_states * plan.out_size
        schedule: "Schedule | None" = None
        try:
            schedule = plan_contraction(self._scopes, self._cards, output)
        except InferenceError:  # pragma: no cover - pathological widths
            schedule = None
        if (
            schedule is not None
            and joint_entries <= self._max_joint_entries
            and schedule.max_intermediate
            <= max(4 * self._max_joint_entries, joint_entries)
        ):
            joint = execute_schedule(schedule, [f.values for f in self._factors])
            plan.joint = np.ascontiguousarray(
                joint.reshape(n_ev_states, plan.out_size)
            )
            if _OBS.enabled:
                _OBS.metrics.counter("engine.plan.joint_tables").inc()
        else:
            self._build_sliced(plan)
            if _OBS.enabled:
                _OBS.metrics.counter("engine.plan.sliced").inc()

        n_evicted = 0
        with self._cache_lock:
            existing = self._plans.get(key)
            if existing is not None:
                # A racing thread compiled this key first; keep its plan
                # (callers may already hold references to it).
                self._plans.move_to_end(key)
                self._hits += 1
                return existing
            self._compiles += 1
            self._plans[key] = plan
            if plan.joint is not None:
                self._joint_tables += 1
                self._joint_entries += plan.joint.size
            while len(self._plans) > self._plan_cache_size:
                evicted_key, evicted = self._plans.popitem(last=False)
                if evicted.joint is not None:
                    self._joint_tables -= 1
                    self._joint_entries -= evicted.joint.size
                self._evictions += 1
                n_evicted += 1
        if _OBS.enabled:
            _OBS.metrics.counter("engine.plan.compiles").inc()
            if n_evicted:
                _OBS.metrics.counter("engine.plan.evictions").inc(n_evicted)
        return plan

    def _build_sliced(self, plan: _QueryPlan) -> None:
        """Evidence-axes-first factor tables plus the schedules that
        replay against their evidence slices."""
        evidence_vars = set(plan.evidence_vars)
        plan.operands = []
        for f in self._factors:
            ev_axes = [i for i, v in enumerate(f.variables) if v in evidence_vars]
            free_axes = [i for i, v in enumerate(f.variables) if v not in evidence_vars]
            ev_vars = tuple(f.variables[i] for i in ev_axes)
            free_vars = tuple(f.variables[i] for i in free_axes)
            # Evidence axes first so advanced indexing (scalar states or
            # row columns) lands the batch axis in front of the free axes.
            values = np.ascontiguousarray(np.transpose(f.values, ev_axes + free_axes))
            plan.operands.append((values, ev_vars, free_vars))
        cards = dict(self._cards)
        cards[_BATCH_VAR] = _NOMINAL_BATCH
        single_scopes = [free for _, _, free in plan.operands]
        batch_scopes = [
            ((_BATCH_VAR,) + free if ev else free)
            for _, ev, free in plan.operands
        ]
        # A signature the planner cannot schedule raises here, uncached.
        plan.schedule_single = plan_contraction(single_scopes, cards, plan.variables)
        plan.schedule_batch = plan_contraction(
            batch_scopes, cards, (_BATCH_VAR,) + plan.variables
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(
        self,
        variables: Iterable[str],
        evidence: "Mapping[str, int] | None" = None,
    ) -> DiscreteFactor:
        """Posterior joint factor ``P(variables | evidence)``.

        Result matches
        :func:`repro.bn.inference.variable_elimination.query` (same scope
        order, normalized); only the cost differs.
        """
        _t0 = _OBS.clock() if _OBS.enabled else None
        variables = tuple(map(str, variables))
        evidence = (
            {str(k): int(v) for k, v in evidence.items()} if evidence else {}
        )
        key = (variables, frozenset(evidence))
        plan = self._lookup(key)
        if plan is None:
            plan = self._compile(key, variables, frozenset(evidence))
        flat = 0
        for v, card, stride in zip(
            plan.evidence_vars, plan.ev_cards, plan.ev_strides
        ):
            s = evidence[v]
            if not 0 <= s < card:
                raise InferenceError(
                    f"state {s} out of range for {v!r} (card {card})"
                )
            flat += s * stride
        if self.failure_hook is not None:
            self.failure_hook("query", variables, evidence)
        if plan.joint is not None:
            values = plan.joint[flat].reshape(plan.out_shape)
        else:
            arrays = [
                values[tuple(evidence[v] for v in ev_vars)] if ev_vars else values
                for values, ev_vars, _ in plan.operands
            ]
            values = execute_schedule(plan.schedule_single, arrays)
        total = float(values.sum())
        if total <= 0:
            raise InferenceError("evidence has zero probability under the model")
        if _t0 is not None:
            _OBS.metrics.counter("engine.query.calls").inc()
            _OBS.metrics.histogram("engine.query.seconds").observe(
                _OBS.clock() - _t0
            )
        return DiscreteFactor(variables, plan.out_shape, values / total)

    def query_batch(
        self,
        variables: Iterable[str],
        evidence_rows: "Mapping[str, Sequence[int]] | Sequence[Mapping[str, int]]",
        dtype: "np.dtype | type | None" = None,
    ) -> np.ndarray:
        """Answer N evidence rows in one vectorized pass.

        ``evidence_rows`` is either a mapping ``{variable: column of N
        state indices}`` or a sequence of N ``{variable: state}`` rows
        (all rows must observe the same variable set — that *is* the
        compiled signature).  Columnar 1-D integer arrays are used
        as-is, zero-copy.  Returns an ``(N, card(V1), ...)`` array whose
        row ``i`` is the normalized posterior
        ``P(variables | evidence_rows[i])``, identical (up to float
        error) to calling :meth:`query` row by row.

        ``dtype=np.float32`` runs the gather/normalization in single
        precision: roughly half the memory traffic, with posterior
        deviation from the float64 path bounded by
        :data:`FLOAT32_MAX_DEVIATION` (asserted by the benchmark suite).
        """
        _t0 = _OBS.clock() if _OBS.enabled else None
        if dtype is None:
            use_f32 = False
        else:
            dtype = np.dtype(dtype)
            if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
                raise InferenceError(
                    f"query_batch dtype must be float32 or float64, got {dtype}"
                )
            use_f32 = dtype == np.dtype(np.float32)
        variables = tuple(map(str, variables))
        columns = _evidence_columns(evidence_rows)
        key = (variables, frozenset(columns))
        plan = self._lookup(key)
        if plan is None:
            plan = self._compile(key, variables, frozenset(columns))
        if not columns:
            raise InferenceError("query_batch needs at least one evidence variable")
        n = -1
        for v, col in columns.items():
            if n == -1:
                n = col.size
            elif col.size != n:
                raise InferenceError(
                    "evidence columns have mismatched lengths "
                    f"{ {u: c.size for u, c in columns.items()} }"
                )
        if n == 0:
            raise InferenceError("query_batch needs at least one evidence row")
        try:
            flat = np.ravel_multi_index(
                tuple(columns[v] for v in plan.evidence_vars), plan.ev_cards
            )
        except ValueError:
            for v in plan.evidence_vars:
                col = columns[v]
                if col.size and (col.min() < 0 or col.max() >= self._cards[v]):
                    raise InferenceError(
                        f"evidence states for {v!r} out of range "
                        f"(card {self._cards[v]})"
                    ) from None
            raise  # pragma: no cover - ravel failed for another reason
        if self.failure_hook is not None:
            self.failure_hook("batch", variables, columns)
        if plan.joint is not None:
            table = plan.joint
            if use_f32:
                if plan.joint_f32 is None:
                    plan.joint_f32 = plan.joint.astype(np.float32)
                table = plan.joint_f32
            out = table.take(flat, axis=0)
            totals = out.sum(axis=1)
            bad = np.flatnonzero(totals <= 0)
            if bad.size:
                raise InferenceError(
                    "evidence has zero probability under the model at rows "
                    f"{bad[:5].tolist()}"
                )
            out = out / totals[:, None]
            out = out.reshape((n,) + plan.out_shape)
        else:
            out = self._batch_sliced(plan, columns, n, use_f32)
        if _t0 is not None:
            _OBS.metrics.counter("engine.query_batch.calls").inc()
            _OBS.metrics.counter("engine.query_batch.rows").inc(n)
            _OBS.metrics.histogram("engine.query_batch.seconds").observe(
                _OBS.clock() - _t0
            )
        return out

    def _batch_sliced(
        self,
        plan: _QueryPlan,
        columns: Mapping[str, np.ndarray],
        n: int,
        use_f32: bool,
    ) -> np.ndarray:
        """Batch answer for plans whose joint table was over budget."""
        operands = plan.operands
        if use_f32:
            if plan.operands_f32 is None:
                plan.operands_f32 = [
                    (values.astype(np.float32), ev, free)
                    for values, ev, free in plan.operands
                ]
            operands = plan.operands_f32
        arrays = [
            values[tuple(columns[v] for v in ev_vars)] if ev_vars else values
            for values, ev_vars, _ in operands
        ]
        out = execute_schedule(plan.schedule_batch, arrays)
        totals = out.reshape(n, -1).sum(axis=1)
        bad = np.flatnonzero(totals <= 0)
        if bad.size:
            raise InferenceError(
                "evidence has zero probability under the model at rows "
                f"{bad[:5].tolist()}"
            )
        return out / totals.reshape((n,) + (1,) * len(plan.out_shape))

    def prior(self, variable: str) -> DiscreteFactor:
        """Cached evidence-free marginal ``P(variable)``."""
        variable = str(variable)
        cached = self._priors.get(variable)
        if cached is None:
            cached = self.query([variable], {})
            self._priors[variable] = cached
        return cached

    def posterior_mean_batch(
        self,
        variable: str,
        centers: np.ndarray,
        evidence_rows: "Mapping[str, Sequence[int]] | Sequence[Mapping[str, int]]",
    ) -> np.ndarray:
        """Vectorized counterpart of ``network.posterior_mean`` — one mean
        per evidence row, in the original (bin-center) units."""
        centers = np.asarray(centers, dtype=float)
        pmfs = self.query_batch([variable], evidence_rows)
        if centers.shape != pmfs.shape[1:]:
            raise InferenceError("centers do not match the variable's cardinality")
        return pmfs @ centers


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def _evidence_columns(evidence_rows) -> dict[str, np.ndarray]:
    """Normalize either batch-evidence form into integer index columns.

    Columnar input that already holds 1-D integer arrays passes through
    **zero-copy** (``np.shares_memory`` with the caller's arrays); only
    dtype/shape mismatches pay a conversion.  The row-mapping form fills
    one preallocated column per variable in a single pass.
    """
    if isinstance(evidence_rows, Mapping):
        columns: dict[str, np.ndarray] = {}
        for v, col in evidence_rows.items():
            arr = np.asarray(col)
            if arr.dtype != np.intp:
                if arr.dtype.kind in "iu":
                    arr = arr.astype(np.intp, copy=False)
                else:
                    arr = np.asarray(col, dtype=np.intp)
            if arr.ndim != 1:
                arr = arr.reshape(-1)
            columns[str(v)] = arr
        return columns
    rows = list(evidence_rows)
    if not rows:
        raise InferenceError("query_batch needs at least one evidence row")
    keys = tuple(map(str, rows[0]))
    key_set = set(keys)
    out = {k: np.empty(len(rows), dtype=np.intp) for k in keys}
    for i, row in enumerate(rows):
        row = {str(k): int(v) for k, v in row.items()}
        if set(row) != key_set:
            raise InferenceError(
                f"evidence row {i} observes {sorted(row)}, "
                f"expected {sorted(key_set)} (one signature per batch)"
            )
        for k in keys:
            out[k][i] = row[k]
    return out
