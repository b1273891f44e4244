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
  the plan stores its rows **normalized once** (read-only) beside their
  masses: a plan-cache hit is a stride computation, an index into the
  masses (zero mass raises) and one gather — no sum, divide or
  re-validation.  :meth:`pmf` returns that row as a read-only view, so
  no caller can write into the plan; :meth:`query` wraps it in a
  :class:`~repro.bn.factors.DiscreteFactor`; :meth:`query_batch`
  answers N rows with one ``take`` — no per-row Python or contraction;
- signatures whose joint table would exceed ``max_joint_entries`` fall
  back to replaying the (cached) contraction schedule against
  evidence-sliced operands, normalized per call — still one vectorized
  pass per batch.  A
  signature the planner cannot schedule at all raises
  :class:`~repro.exceptions.InferenceError`; the serving fallback chain
  answers it exactly with variable elimination;
- :meth:`query_batch` takes one form of evidence, a ``{variable:
  integer column}`` mapping, and never copies columns that already are
  1-D ``intp`` arrays; it answers in float64, like :meth:`query`;
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

#: Synthetic variable name for the batch axis in sliced-path schedules.
#: NUL is not a legal network variable name, so it can never collide.
_BATCH_VAR = "\x00batch"

#: Nominal batch length used for planning sliced batch schedules (the
#: schedule is shared across batch sizes; relative step costs are what
#: matters, not the exact N).
_NOMINAL_BATCH = 1024

_ZERO_MASS = "evidence has zero probability under the model"


class _QueryPlan:
    """Everything reusable across queries sharing one (Q, E) signature."""

    __slots__ = (
        "variables",
        "evidence_vars",
        "ev_cards",
        "ev_strides",
        "out_shape",
        "out_size",
        "rows",               # (n_ev_states, *out_shape) normalized, read-only
        "mass",               # (n_ev_states,) joint mass of each evidence row
        "operands",           # list[(values, ev_vars, free_vars)]
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
        self.rows = None
        self.mass = None
        self.operands = None
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
            joint = joint.reshape(n_ev_states, plan.out_size)
            mass = joint.sum(axis=1)
            # Zero-mass rows stay zero; every lookup checks `mass` first.
            rows = joint / np.where(mass > 0, mass, 1.0)[:, None]
            rows = rows.reshape((n_ev_states,) + plan.out_shape)
            rows.flags.writeable = False
            plan.rows, plan.mass = rows, mass
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
            if plan.rows is not None:
                self._joint_tables += 1
                self._joint_entries += plan.rows.size
            while len(self._plans) > self._plan_cache_size:
                evicted_key, evicted = self._plans.popitem(last=False)
                if evicted.rows is not None:
                    self._joint_tables -= 1
                    self._joint_entries -= evicted.rows.size
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
        if plan.evidence_vars:  # a batch needs evidence; a prior has none
            plan.schedule_batch = plan_contraction(
                batch_scopes, cards, (_BATCH_VAR,) + plan.variables
            )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def pmf(self, variables: Sequence[str], evidence: Mapping[str, int]) -> np.ndarray:
        """Posterior ``P(variables | evidence)`` as a read-only array whose
        axes follow ``variables``: a view of the plan's normalized row (a
        fresh array on the sliced path).  Names and integer states are
        used as given — the serving chain's lookup converts nothing."""
        _t0 = _OBS.clock() if _OBS.enabled else None
        variables = tuple(variables)
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
        if plan.rows is not None:
            if not plan.mass[flat] > 0:
                raise InferenceError(_ZERO_MASS)
            values = plan.rows[flat]
        else:
            arrays = [
                values[tuple(evidence[v] for v in ev_vars)] if ev_vars else values
                for values, ev_vars, _ in plan.operands
            ]
            values = execute_schedule(plan.schedule_single, arrays)
            total = float(values.sum())
            if not total > 0:
                raise InferenceError(_ZERO_MASS)
            values = values / total
            values.flags.writeable = False
        if _t0 is not None:
            _OBS.metrics.counter("engine.query.calls").inc()
            _OBS.metrics.histogram("engine.query.seconds").observe(
                _OBS.clock() - _t0
            )
        return values

    def query(
        self,
        variables: Iterable[str],
        evidence: "Mapping[str, int] | None" = None,
    ) -> DiscreteFactor:
        """Posterior joint factor ``P(variables | evidence)``.

        Result matches
        :func:`repro.bn.inference.variable_elimination.query` (same scope
        order, normalized); only the cost differs.  Its values are
        :meth:`pmf`'s read-only array.
        """
        variables = tuple(map(str, variables))
        evidence = (
            {str(k): int(v) for k, v in evidence.items()} if evidence else {}
        )
        values = self.pmf(variables, evidence)
        return DiscreteFactor(variables, values.shape, values)

    def query_batch(
        self,
        variables: Iterable[str],
        columns: Mapping[str, Sequence[int]],
    ) -> np.ndarray:
        """Answer N evidence rows in one vectorized pass.

        ``columns`` maps each evidence variable to a column of N state
        indices (one signature per batch); 1-D ``intp`` arrays are used
        as-is, zero-copy.  Returns a float64 ``(N, card(V1), ...)`` array
        whose row ``i`` is the normalized posterior ``P(variables |
        row i)``, identical (up to float error) to calling :meth:`query`
        row by row.
        """
        _t0 = _OBS.clock() if _OBS.enabled else None
        variables = tuple(map(str, variables))
        columns = _evidence_columns(columns)
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
        if plan.rows is not None:
            masses = plan.mass.take(flat)
            out = plan.rows.take(flat, axis=0)
        else:
            out = execute_schedule(
                plan.schedule_batch,
                [
                    values[tuple(columns[v] for v in ev_vars)] if ev_vars else values
                    for values, ev_vars, _ in plan.operands
                ],
            ).reshape(n, plan.out_size)
            masses = out.sum(axis=1)
        bad = np.flatnonzero(masses <= 0)
        if bad.size:
            raise InferenceError(f"{_ZERO_MASS} at rows {bad[:5].tolist()}")
        if plan.rows is None:
            out = (out / masses[:, None]).reshape((n,) + plan.out_shape)
        if _t0 is not None:
            _OBS.metrics.counter("engine.query_batch.calls").inc()
            _OBS.metrics.counter("engine.query_batch.rows").inc(n)
            _OBS.metrics.histogram("engine.query_batch.seconds").observe(
                _OBS.clock() - _t0
            )
        return out

    def prior(self, variable: str) -> DiscreteFactor:
        """Cached evidence-free marginal ``P(variable)``."""
        variable = str(variable)
        cached = self._priors.get(variable)
        if cached is None:
            cached = self.query([variable], {})
            self._priors[variable] = cached
        return cached


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def _evidence_columns(columns) -> dict[str, np.ndarray]:
    """``{variable: integer column}`` → 1-D ``intp`` index columns.

    Columns that already are 1-D ``intp`` arrays pass through
    **zero-copy** (``np.shares_memory`` with the caller's arrays); other
    integer dtypes and shapes pay a conversion.  A non-integer column
    raises rather than being truncated to states.
    """
    if not isinstance(columns, Mapping):
        raise InferenceError(
            "query_batch takes a {variable: integer column} mapping, got "
            f"{type(columns).__name__}"
        )
    out: dict[str, np.ndarray] = {}
    for v, col in columns.items():
        arr = np.asarray(col)
        if arr.dtype.kind not in "iu":
            raise InferenceError(
                f"evidence column {v!r} is not integer-typed (dtype {arr.dtype})"
            )
        if arr.dtype != np.intp:
            arr = arr.astype(np.intp, copy=False)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        out[str(v)] = arr
    return out
