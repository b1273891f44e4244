"""The ``ediamond_queries`` workload and its independent oracle.

One closed-loop caller drives a registry-backed ``ModelServer`` over the
discrete eDiaMoND KERT-BN (1200 training points, 5 bins): guarded
single calls (dComp posterior of X4, pAccel projection with X4 at 90 %,
violation probability), 1000-row columnar batches, and every
``SWAP_EVERY`` single calls a swap that publishes a pre-built model
version, refreshes the server and answers one query.

The oracle enumerates each version's full joint (5^7 states) through
``per_row_log_likelihood``, which reads the CPD tables directly and
shares no code with ``repro.bn.inference`` or ``repro.bn.factors``.
Raw evidence is binned here with the discretizer's stored edges.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time

import numpy as np

import reference
from repro.bn.data import Dataset
from repro.core.kertbn import build_discrete_kertbn
from repro.serving.fallback import TIER_COMPILED
from repro.serving.registry import ModelRegistry
from repro.serving.server import ModelServer
from repro.simulator.scenarios.ediamond import ediamond_scenario

TRAIN_POINTS = 1200
N_BINS = 5
#: One model version per emulated WAN delay (s) to the remote hospital.
VERSION_WAN_DELAYS = (0.25, 0.4, 0.6)
BATCH_ROWS = 1000
BATCH_EVERY = 50     # single calls between two batch chunks
SWAP_EVERY = 2000    # single calls between two swaps
CHECK_EVERY = 8      # every 8th single answer is checked against the oracle
REF_EVERY = 200      # single calls between two timings of the reference job
TOL = 1e-9
#: Shares of dComp / project / violation_prob single calls.  An
#: assumption: the paper's Sec. 5 names the two applications but gives no
#: traffic mix, so dComp gets half the calls and pAccel's two calls split
#: the other half.
KIND_MIX = (0.5, 0.25, 0.25)
KIND_NAMES = ("dcomp", "project", "violation")
TARGET = "X4"


class Oracle:
    """Exact posteriors of one model version by full enumeration."""

    def __init__(self, model):
        network = model.network
        self.nodes = [str(n) for n in network.nodes]
        cards = network.cardinalities
        grids = np.meshgrid(*[np.arange(cards[n]) for n in self.nodes], indexing="ij")
        rows = Dataset({n: g.ravel() for n, g in zip(self.nodes, grids)})
        self.joint = np.exp(network.per_row_log_likelihood(rows)).reshape(
            [cards[n] for n in self.nodes]
        )
        disc = model.discretizer
        self.edges = {n: np.asarray(disc.edges(n), dtype=float) for n in self.nodes}
        self.centers = {n: np.asarray(disc.centers(n), dtype=float) for n in self.nodes}
        self.response = model.response

    def state(self, node: str, value):
        """Raw value(s) -> bin index, clipped to the outer bins."""
        edges = self.edges[node]
        idx = np.searchsorted(edges[1:-1], value, side="right")
        return np.clip(idx, 0, edges.size - 2)

    def posterior(self, target: str, states: dict) -> np.ndarray:
        """P(target | states); ``states`` values may be arrays (batch)."""
        axes = [self.nodes.index(n) for n in states]
        keep = self.nodes.index(target)
        table = self.joint
        other = [i for i in range(len(self.nodes)) if i != keep and i not in axes]
        table = table.sum(axis=tuple(other), keepdims=True)
        index = tuple(
            np.asarray(states[n]) if i in axes else slice(None)
            for i, n in enumerate(self.nodes)
        )
        picked = table[index]
        picked = np.asarray(picked).reshape(-1, self.joint.shape[keep])
        picked = picked / picked.sum(axis=1, keepdims=True)
        return picked if any(np.ndim(states[n]) for n in states) else picked[0]

    def tail(self, pmf: np.ndarray, threshold: float) -> float:
        """P(D > threshold), mass uniform within each bin."""
        edges = self.edges[self.response]
        total = 0.0
        for b, mass in enumerate(pmf):
            lo, hi = edges[b], edges[b + 1]
            if threshold <= lo:
                total += mass
            elif threshold < hi:
                total += mass * (hi - threshold) / (hi - lo)
        return total


class Inputs:
    """Seeded traffic: evidence pool, query kinds, batch chunks."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7001]))
        self.train_seeds = [int(s) for s in rng.integers(0, 2**31, len(VERSION_WAN_DELAYS))]
        env = ediamond_scenario()
        window = env.simulate(600, rng=rng)
        names = list(window.columns)
        self.evidence_names = [c for c in names if c != TARGET]
        starts = rng.integers(0, window.n_rows - 20, size=1024)
        cols = {c: np.asarray(window[c], dtype=float) for c in names}
        self.pool = [{c: float(cols[c][s : s + 20].mean()) for c in names} for s in starts]
        self.kinds = rng.choice(3, size=4096, p=KIND_MIX)
        self.threshold = float(np.quantile(cols["D"], 0.8))
        self.batch_rows = [rng.integers(0, window.n_rows, size=BATCH_ROWS) for _ in range(8)]
        self.window = cols


class Service:
    """The program side: model versions, registry and server."""

    def __init__(self, inputs: Inputs, tmpdir: str):
        self.models = []
        for wan, train_seed in zip(VERSION_WAN_DELAYS, inputs.train_seeds):
            env = ediamond_scenario(wan_delay=wan)
            train = env.simulate(TRAIN_POINTS, rng=train_seed)
            self.models.append(build_discrete_kertbn(env.workflow, train, n_bins=N_BINS))
        self.registry = ModelRegistry(tmpdir)
        self.registry.publish(self.models[0])
        self.server = ModelServer(self.registry)


class Traffic:
    """The closed-loop caller; checks answers against the oracles."""

    def __init__(self, inputs: Inputs, service: Service, oracles: list):
        self.inputs = inputs
        self.service = service
        self.oracles = oracles
        self.current = 0          # index of the served model version
        self.n_single = 0
        self.n_swaps = 0
        self.single_s: list = []
        self.batch_s: list = []
        self.swap_s: list = []
        self.batch_rows = 0
        self.failed = 0
        self.attempted = 0
        self.non_compiled = 0     # single answers not from the compiled engine
        self.plan_hits = 0        # plan-cache counters of retired engines
        self.plan_compiles = 0
        self.ref_s: list = []     # reference-job durations, one per REF_EVERY calls
        self.errors: list = []
        self.digest = hashlib.sha256()
        self.batches = self._binned_batches()

    def _binned_batches(self) -> list:
        oracle = self.oracles[0]
        out = []
        for rows in self.inputs.batch_rows:
            out.append(
                {
                    c: oracle.state(c, self.inputs.window[c][rows]).astype(np.intp)
                    for c in self.inputs.evidence_names
                }
            )
        return out

    # -- one operation each -------------------------------------------- #

    def _single(self, i: int, check: bool) -> float:
        server = self.service.server
        evidence = self.inputs.pool[i % len(self.inputs.pool)]
        kind = self.inputs.kinds[i % len(self.inputs.kinds)]
        accel = {TARGET: 0.9 * evidence[TARGET]}
        start = time.perf_counter()
        if kind == 0:
            ev = {c: evidence[c] for c in self.inputs.evidence_names}
            result = server.query([TARGET], ev)
        elif kind == 1:
            result = server.project(accel)
        else:
            result = server.violation_prob(self.inputs.threshold, accel)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if not result.ok:
            self.failed += 1
            return elapsed
        if kind == 0:
            answer = np.asarray(result.value, dtype=float)
        elif kind == 1:
            answer = np.asarray(result.value.pmf, dtype=float)
        else:
            answer = np.asarray([result.value], dtype=float)
        self.non_compiled += result.tier != TIER_COMPILED
        self.digest.update(answer.tobytes())
        if check:
            self._check_single(kind, evidence, accel, result, answer)
        return elapsed

    def _check_single(self, kind, evidence, accel, result, answer) -> None:
        oracle = self.oracles[self.current]
        if kind == 0:
            states = {c: int(oracle.state(c, evidence[c])) for c in self.inputs.evidence_names}
            want = oracle.posterior(TARGET, states)
            got = answer
        else:
            d_pmf = oracle.posterior(oracle.response, {TARGET: int(oracle.state(TARGET, accel[TARGET]))})
            if kind == 1:
                want = np.append(d_pmf, float(d_pmf @ oracle.centers[oracle.response]))
                got = np.append(answer, result.value.mean)
            else:
                want = np.asarray([oracle.tail(d_pmf, self.inputs.threshold)])
                got = answer
        if kind != 2 and abs(float(answer.sum()) - 1.0) > TOL:
            self.errors.append(f"query {self.n_single}: pmf sums to {answer.sum()!r}")
        if got.shape != want.shape or np.max(np.abs(got - want)) > TOL:
            self.errors.append(
                f"query {self.n_single} (kind {kind}, version {self.service.server.version}): "
                f"answer {got.tolist()} != oracle {want.tolist()}"
            )

    def _batch(self, j: int) -> None:
        columns = self.batches[j % len(self.batches)]
        start = time.perf_counter()
        result = self.service.server.query_batch_columns([TARGET], columns)
        self.batch_s.append(time.perf_counter() - start)
        self.attempted += 1
        if not result.ok or result.n_valid != BATCH_ROWS:
            self.failed += 1
            return
        self.batch_rows += BATCH_ROWS
        pmfs = np.asarray(result.pmfs, dtype=float)
        self.digest.update(pmfs.tobytes())
        want = self.oracles[self.current].posterior(TARGET, columns)
        if np.max(np.abs(pmfs - want)) > TOL or np.max(np.abs(pmfs.sum(axis=1) - 1.0)) > TOL:
            self.errors.append(f"batch {j} (version {self.service.server.version}) differs from the oracle")

    def _swap(self) -> None:
        service = self.service
        nxt = (self.current + 1) % len(service.models)
        self.retire_engine()
        start = time.perf_counter()
        version = service.registry.publish(service.models[nxt])
        service.server.refresh()
        self.current = nxt
        evidence = self.inputs.pool[self.n_swaps % len(self.inputs.pool)]
        ev = {c: evidence[c] for c in self.inputs.evidence_names}
        result = service.server.query([TARGET], ev)
        self.swap_s.append(time.perf_counter() - start)
        self.n_swaps += 1
        self.attempted += 1
        if service.server.version != version:
            self.errors.append(f"swap to v{version}: server serves v{service.server.version}")
        if not result.ok:
            self.failed += 1
            return
        self.digest.update(np.asarray(result.value, dtype=float).tobytes())
        oracle = self.oracles[nxt]
        states = {c: int(oracle.state(c, ev[c])) for c in ev}
        if np.max(np.abs(np.asarray(result.value) - oracle.posterior(TARGET, states))) > TOL:
            self.errors.append(f"first answer after swap to v{version} differs from the new oracle")

    def retire_engine(self) -> None:
        stats = self.service.server.chain.engine.cache_stats()
        self.plan_hits += stats["hits"]
        self.plan_compiles += stats["compiles"]

    def step(self) -> None:
        """One single call, plus a batch chunk or swap when due."""
        i = self.n_single
        if i % REF_EVERY == 0:
            self.ref_s.append(reference.job_seconds())
        self.single_s.append(self._single(i, check=i % CHECK_EVERY == 0))
        self.n_single += 1
        if self.n_single % BATCH_EVERY == 0:
            self._batch(self.n_single // BATCH_EVERY)
        if self.n_single % SWAP_EVERY == 0:
            self._swap()


def run(seed: int, seconds: float, tmpdir: str, steps: "int | None" = None, setups: int = 7, around=contextlib.nullcontext):
    """Set up ``setups`` times, then drive traffic for ``seconds`` (or
    exactly ``steps`` single calls when given) inside ``around()``."""
    inputs = Inputs(seed)
    setup_times = []
    setup_raw = []
    for i in range(setups):
        service, scaled, raw = reference.host_seconds(
            lambda: Service(inputs, os.path.join(tmpdir, f"registry-{i}"))
        )
        setup_times.append(scaled)
        setup_raw.append(raw)
    oracles = [Oracle(m) for m in service.models]
    traffic = Traffic(inputs, service, oracles)
    with around():
        deadline = time.perf_counter() + seconds
        while (traffic.n_single < steps) if steps is not None else (time.perf_counter() < deadline):
            traffic.step()
    traffic.retire_engine()
    return {
        "setup_s": float(np.median(setup_times)),
        "setup_raw_s": float(np.median(setup_raw)),
        "traffic": traffic,
    }


def single_kinds(traffic: Traffic) -> np.ndarray:
    """The kind (index into ``KIND_NAMES``) of each timed single call."""
    kinds = traffic.inputs.kinds
    return kinds[np.arange(len(traffic.single_s)) % len(kinds)]


def metrics(traffic: Traffic) -> dict:
    single = np.asarray(traffic.single_s)
    kinds = single_kinds(traffic)
    by_kind = {
        f"{name}_p50_us": float(np.percentile(single[kinds == k], 50) * 1e6)
        for k, name in enumerate(KIND_NAMES)
    }
    return {
        **by_kind,
        "query_p50_us": float(np.percentile(single, 50) * 1e6),
        "query_p99_us": float(np.percentile(single, 99) * 1e6),
        "queries_per_s": float(single.size / single.sum()),
        "batch_rows_per_s": float(traffic.batch_rows / sum(traffic.batch_s)) if traffic.batch_s else float("nan"),
        "swap_p50_ms": float(np.median(traffic.swap_s) * 1e3) if traffic.swap_s else float("nan"),
        "failed_query_share": traffic.failed / traffic.attempted,
        "ref_ms": float(np.median(traffic.ref_s) * 1e3),
        "n_single": int(single.size),
        "n_batches": len(traffic.batch_s),
        "n_swaps": len(traffic.swap_s),
    }
