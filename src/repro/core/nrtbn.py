"""NRT-BN: the Naive Response Time Bayesian Network baseline.

"Learned purely from data via both structure learning with K2 [6] and
parameter learning" (Section 4).  No domain knowledge: the DAG comes from
a K2 search over a node ordering (random by default — nothing privileges
any order without knowledge; Section 5.3's variant retries many random
orderings within a time budget), and every CPD is learned.

Also provided: the *learning-free* naive-Bayes structure (response node
as sole parent of every service node) that Section 4.2 considers and
dismisses — "not only is a learning-free NRT-BN even less accurate … but
its use will result in complete loss of model interpretability".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bn.dag import DAG
from repro.bn.data import Dataset
from repro.bn.discretize import Discretizer
from repro.bn.learning.k2 import K2Result, k2_random_restarts, k2_search
from repro.bn.learning.mle import fit_gaussian_network
from repro.bn.learning.scores import (
    ScoreCache,
    discrete_k2_local,
    gaussian_bic_local,
)
from repro.bn.network import DiscreteBayesianNetwork, GaussianBayesianNetwork
from repro.core.metrics import BuildReport
from repro.exceptions import LearningError
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer, timed


@dataclass
class NRTBN:
    """A built NRT-BN: network, cost report, and the K2 search outcome."""

    network: "GaussianBayesianNetwork | DiscreteBayesianNetwork"
    response: str
    report: BuildReport
    k2: "K2Result | None" = None
    discretizer: "Discretizer | None" = None

    @property
    def kind(self) -> str:
        return self.report.model_kind

    def log10_likelihood(self, data: Dataset) -> float:
        """Test accuracy on continuous-unit data (see KERTBN counterpart)."""
        if self.discretizer is not None:
            data = self.discretizer.transform(data)
        return self.network.log10_likelihood(data)


def naive_structure(services: "tuple[str, ...]", response: str = "D") -> DAG:
    """The learning-free classic naive-Bayes DAG: ``D → X_i`` for all i."""
    dag = DAG(nodes=(response, *services))
    for s in services:
        dag.add_edge(response, s)
    return dag


def build_continuous_nrtbn(
    data: Dataset,
    response: str = "D",
    rng=None,
    max_parents: "int | None" = 5,
    n_restarts: "int | None" = None,
    time_budget: "float | None" = None,
    min_variance: float = 1e-9,
) -> NRTBN:
    """K2 + linear-Gaussian parameter learning over all data columns.

    ``n_restarts`` / ``time_budget`` enable the Section-5.3 random-restart
    scheme; with neither set a single random ordering is used.
    ``max_parents`` is K2's fan-in bound ``u`` (an input of the original
    algorithm [Cooper & Herskovits 1992]); the default 5 keeps the
    baseline honest on tiny training windows, where unbounded greedy
    parent acquisition overfits pathologically.
    """
    rng = ensure_rng(rng)
    nodes = [str(c) for c in data.columns]
    if response not in nodes:
        raise LearningError(f"data lacks response column {response!r}")
    cache = ScoreCache(lambda v, ps: gaussian_bic_local(data, v, ps))

    structure_timer = Timer()
    with structure_timer:
        if n_restarts is not None or time_budget is not None:
            k2 = k2_random_restarts(
                nodes, cache, rng=rng, n_restarts=n_restarts,
                time_budget=time_budget, max_parents=max_parents,
            )
        else:
            order = [nodes[i] for i in rng.permutation(len(nodes))]
            k2 = k2_search(nodes, cache, order=order, max_parents=max_parents)

    per_cpd: dict[str, float] = {}
    param_timer = Timer()
    with param_timer:
        from repro.bn.learning.mle import fit_linear_gaussian

        cpds = []
        for node in k2.dag.nodes:
            node = str(node)
            parents = tuple(map(str, k2.dag.parents(node)))
            cpd, secs = timed(
                fit_linear_gaussian, data, node, parents, min_variance=min_variance
            )
            per_cpd[node] = secs
            cpds.append(cpd)
        network = GaussianBayesianNetwork(k2.dag, cpds)
    report = BuildReport(
        model_kind="nrt-bn/continuous",
        structure_seconds=structure_timer.elapsed,
        parameter_seconds=param_timer.elapsed,
        per_cpd_seconds=per_cpd,
        n_nodes=k2.dag.n_nodes,
        n_edges=k2.dag.n_edges,
        n_parameters=network.n_parameters,
        n_training_rows=data.n_rows,
        extra={
            "k2_score": k2.score,
            "k2_evaluations": k2.n_score_evaluations,
            "k2_restarts": k2.n_restarts,
        },
    )
    return NRTBN(network=network, response=response, report=report, k2=k2)


def build_discrete_nrtbn(
    data: Dataset,
    response: str = "D",
    rng=None,
    n_bins: int = 5,
    alpha: float = 1.0,
    max_parents: "int | None" = 3,
    n_restarts: "int | None" = None,
    time_budget: "float | None" = None,
    discretizer: "Discretizer | None" = None,
) -> NRTBN:
    """Discretize, K2 with the Cooper–Herskovits score, fit tabular CPDs."""
    rng = ensure_rng(rng)
    nodes = [str(c) for c in data.columns]
    if response not in nodes:
        raise LearningError(f"data lacks response column {response!r}")
    if discretizer is None:
        discretizer = Discretizer(n_bins=n_bins).fit(data, nodes)
    binned = discretizer.transform(data, nodes)
    cards = discretizer.cardinalities()

    cache = ScoreCache(
        lambda v, ps: discrete_k2_local(
            binned, v, cards[v], ps, tuple(cards[p] for p in ps)
        )
    )
    structure_timer = Timer()
    with structure_timer:
        if n_restarts is not None or time_budget is not None:
            k2 = k2_random_restarts(
                nodes, cache, rng=rng, n_restarts=n_restarts,
                time_budget=time_budget, max_parents=max_parents,
            )
        else:
            order = [nodes[i] for i in rng.permutation(len(nodes))]
            k2 = k2_search(nodes, cache, order=order, max_parents=max_parents)

    param_timer = Timer()
    per_cpd: dict[str, float] = {}
    with param_timer:
        from repro.bn.learning.mle import fit_tabular

        cpds = []
        for node in k2.dag.nodes:
            node = str(node)
            parents = tuple(map(str, k2.dag.parents(node)))
            cpd, secs = timed(
                fit_tabular, binned, node, cards[node], parents,
                tuple(cards[p] for p in parents), alpha,
            )
            per_cpd[node] = secs
            cpds.append(cpd)
        network = DiscreteBayesianNetwork(k2.dag, cpds)
    report = BuildReport(
        model_kind="nrt-bn/discrete",
        structure_seconds=structure_timer.elapsed,
        parameter_seconds=param_timer.elapsed,
        per_cpd_seconds=per_cpd,
        n_nodes=k2.dag.n_nodes,
        n_edges=k2.dag.n_edges,
        n_parameters=network.n_parameters,
        n_training_rows=data.n_rows,
        extra={
            "k2_score": k2.score,
            "k2_evaluations": k2.n_score_evaluations,
            "k2_restarts": k2.n_restarts,
            "n_bins": n_bins,
        },
    )
    return NRTBN(
        network=network, response=response, report=report, k2=k2,
        discretizer=discretizer,
    )


def build_naive_continuous(
    data: Dataset, response: str = "D", min_variance: float = 1e-9
) -> NRTBN:
    """The learning-free naive-Bayes baseline of Section 4.2's discussion."""
    nodes = tuple(str(c) for c in data.columns)
    if response not in nodes:
        raise LearningError(f"data lacks response column {response!r}")
    services = tuple(n for n in nodes if n != response)
    dag = naive_structure(services, response)
    param_timer = Timer()
    with param_timer:
        network = fit_gaussian_network(dag, data, min_variance=min_variance)
    report = BuildReport(
        model_kind="naive-bn/continuous",
        structure_seconds=0.0,
        parameter_seconds=param_timer.elapsed,
        n_nodes=dag.n_nodes,
        n_edges=dag.n_edges,
        n_parameters=network.n_parameters,
        n_training_rows=data.n_rows,
    )
    return NRTBN(network=network, response=response, report=report)
