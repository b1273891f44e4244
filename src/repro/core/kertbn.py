"""KERT-BN: the Knowledge-Enhanced Response Time Bayesian Network.

Construction (Section 3) uses domain knowledge twice and data once:

1. **Structure** — derived from workflow and resource sharing at linear
   cost (:func:`repro.workflow.structure.kert_bn_structure`); *no*
   structure learning.  The continuous builder bundles the structure,
   ``f`` and the fitting layout into a :class:`WorkflowKnowledge`, which
   a caller that refits the same workflow every window (the autonomic
   manager) derives once and passes in place of the workflow.
2. **Response CPD** — the Eq.-4 deterministic CPD parameterized by the
   workflow's ``f``; its only learned quantity is a leak/noise scalar
   (one O(N) pass).
3. **Service CPDs** — ``P(X_i | Φ(X_i))`` learned from local columns
   per node; each CPD's own step is timed individually because these
   are the units that Section 3.4 pushes onto per-service monitoring
   agents.  The continuous builder solves all CPDs that share a parent
   count in one stacked solve, which, like the window's ``ZᵀZ`` pass,
   counts under ``parameter_seconds`` only.

Continuous and discrete variants mirror Section 3.1's trade-off: the
continuous (linear-Gaussian + noisy-``f``) model converges with few data
points; the discrete (tabular + Eq.-4 leak) model is assumption-free
given enough data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.bn.cpd.deterministic import DeterministicCPD, NoisyDeterministicCPD
from repro.bn.dag import DAG
from repro.bn.data import Dataset
from repro.bn.discretize import Discretizer
from repro.bn.learning.mle import DesignMoments, fit_linear_gaussian, fit_tabular
from repro.bn.network import DiscreteBayesianNetwork, HybridResponseNetwork
from repro.core.metrics import BuildReport
from repro.exceptions import LearningError
from repro.utils.timing import Timer, timed
from repro.workflow.constructs import WorkflowNode
from repro.workflow.response_time import ResponseTimeFunction, response_time_function
from repro.workflow.structure import kert_bn_structure

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.assessment import RapidAssessor


@dataclass
class KERTBN:
    """A built KERT-BN: the network plus its provenance and cost report.

    ``network`` is a :class:`HybridResponseNetwork` (continuous) or
    :class:`DiscreteBayesianNetwork` (discrete); ``f`` the workflow
    function behind the response CPD; ``report`` the construction-cost
    accounting; ``discretizer`` is set on discrete models.
    """

    network: "HybridResponseNetwork | DiscreteBayesianNetwork"
    f: ResponseTimeFunction
    response: str
    report: BuildReport
    discretizer: "Discretizer | None" = None

    @property
    def kind(self) -> str:
        return self.report.model_kind

    @cached_property
    def assessor(self) -> "RapidAssessor":
        """The model's one :class:`~repro.apps.assessment.RapidAssessor`,
        which every continuous consumer reads: built on first use (racing
        first uses build equal ones), kept out of ``__eq__``, ``repr`` and
        persistence.  Raises
        :class:`~repro.exceptions.InferenceError` on other models."""
        from repro.apps.assessment import RapidAssessor

        return RapidAssessor(self)

    def log10_likelihood(self, data: Dataset) -> float:
        """Test accuracy on (continuous-unit) data.

        Discrete models transform through their discretizer first, so
        callers always score raw monitored data.
        """
        if self.discretizer is not None:
            data = self.discretizer.transform(data)
        return self.network.log10_likelihood(data)


@dataclass(frozen=True, eq=False)
class WorkflowKnowledge:
    """Everything the continuous KERT-BN takes from the workflow alone.

    Sections 3.2–3.3 derive the structure and ``f`` from workflow
    knowledge; only the CPDs come from data (Sec. 3.4).  None of this
    depends on a window, so :func:`derive_knowledge` runs once per
    workflow and every refit reuses it:

    - ``families``: each node's ``(name, parents)`` in DAG node order;
    - ``columns``: the service columns a window's
      :class:`~repro.bn.learning.mle.DesignMoments` is formed over, in
      workflow order (design column ``j`` holds ``columns[j - 1]``);
    - ``blocks``: aligned with ``families``, each service CPD's design
      columns ``[1, Φ(X_i)…, X_i]`` (``None`` for the response node);
    - ``groups``: one ``(stack, members)`` pair per parent count, in
      increasing order: ``stack`` holds those CPDs' blocks as one
      integer array for :meth:`~repro.bn.learning.mle.DesignMoments.solve`,
      ``members`` their indices into ``families``;
    - ``seconds``: the wall-clock cost of :func:`kert_bn_structure`,
      reported as the model's ``structure_seconds`` (the same phase the
      discrete builder times).
    """

    workflow: WorkflowNode
    response: str
    f: ResponseTimeFunction
    dag: DAG
    families: tuple
    columns: tuple
    blocks: tuple
    groups: tuple
    seconds: float


def derive_knowledge(workflow: WorkflowNode, response: str = "D") -> WorkflowKnowledge:
    """Derive ``f``, the DAG and the fitting layout from ``workflow``."""
    f = response_time_function(workflow)
    # The "structure phase" that replaces NRT-BN's structure search in
    # the Fig. 3/4 comparisons.
    dag, seconds = timed(kert_bn_structure, workflow, response=response)
    families = tuple(
        (str(node), tuple(map(str, dag.parents(node)))) for node in dag.nodes
    )
    columns = tuple(name for name, _ in families if name != response)
    index = {name: j for j, name in enumerate(columns, start=1)}
    blocks = tuple(
        None
        if name == response
        else np.array([0, *(index[p] for p in parents), index[name]])
        for name, parents in families
    )
    members: dict[int, list[int]] = {}
    for i, block in enumerate(blocks):
        if block is not None:
            members.setdefault(len(block), []).append(i)
    groups = tuple(
        (np.stack([blocks[i] for i in group]), tuple(group))
        for _, group in sorted(members.items())
    )
    return WorkflowKnowledge(
        workflow, response, f, dag, families, columns, blocks, groups, seconds
    )


def build_continuous_kertbn(
    workflow: "WorkflowNode | WorkflowKnowledge",
    data: Dataset,
    response: "str | None" = None,
    resource_groups: "Mapping[str, tuple[str, ...]] | None" = None,
    min_variance: float = 1e-9,
) -> KERTBN:
    """Build the continuous KERT-BN of Section 4's simulation study.

    Service nodes get least-squares linear-Gaussian CPDs; the response
    node gets ``f(X) + N(0, σ²)`` with σ² from one residual pass.

    ``workflow`` is either the workflow itself, whose knowledge is then
    derived on this call (its :func:`kert_bn_structure` call timed as the
    structure phase), or a :class:`WorkflowKnowledge` derived earlier;
    then only the CPDs are fitted and ``structure_seconds`` reports that
    earlier, one-time structure phase.  ``response`` names the response
    node: ``"D"`` by default, or the knowledge's response, which it must
    match if given.
    """
    if resource_groups:
        raise LearningError(
            "resource-sharing nodes need their own measurements; pass "
            "resource columns in data and use the discrete builder, or "
            "omit resource_groups for the continuous model"
        )
    if isinstance(workflow, WorkflowKnowledge):
        knowledge = workflow
        if response not in (None, knowledge.response):
            raise LearningError(
                f"knowledge was derived for response {knowledge.response!r}, "
                f"not {response!r}"
            )
    else:
        knowledge = derive_knowledge(workflow, "D" if response is None else response)
    f, response = knowledge.f, knowledge.response

    per_cpd: dict[str, float] = {}
    cpds = []
    param_timer = Timer()
    with param_timer:
        # Shared work, timed under parameter_seconds only: the ZᵀZ pass
        # and one stacked solve per parent count.
        window = DesignMoments([data[name] for name in knowledge.columns])
        solved: list = [None] * len(knowledge.families)
        for stack, members in knowledge.groups:
            betas, mean_squares = window.solve(stack)
            for i, beta, mean_square in zip(members, betas, mean_squares):
                solved[i] = (beta, mean_square)
        for (node, parents), block, fit in zip(
            knowledge.families, knowledge.blocks, solved
        ):
            if block is None:
                cpd, secs = timed(
                    NoisyDeterministicCPD.fit_variance, node, f, parents, data,
                    min_variance=min_variance,
                )
            else:
                cpd, secs = timed(
                    window.cpd, node, parents, block[-1], *fit,
                    min_variance=min_variance,
                )
            per_cpd[node] = secs
            cpds.append(cpd)
    network = HybridResponseNetwork(knowledge.dag, cpds, response=response)
    report = BuildReport(
        model_kind="kert-bn/continuous",
        structure_seconds=knowledge.seconds,
        parameter_seconds=param_timer.elapsed,
        per_cpd_seconds=per_cpd,
        n_nodes=network.dag.n_nodes,
        n_edges=network.dag.n_edges,
        n_parameters=network.n_parameters,
        n_training_rows=data.n_rows,
    )
    return KERTBN(network=network, f=f, response=response, report=report)


def _predicted_vs_actual_bins(
    f: ResponseTimeFunction,
    discretizer: Discretizer,
    data: Dataset,
    response: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Bin of ``f``(binned inputs' centers) vs bin of the measured response."""
    services = sorted(f.inputs)
    binned = discretizer.transform(data, services + [response])
    centers = {s: discretizer.centers(s)[np.asarray(binned[s], dtype=int)] for s in services}
    fx = f(centers)
    edges = discretizer.edges(response)
    predicted = np.digitize(fx, edges[1:-1])
    actual = np.asarray(binned[response], dtype=int)
    return predicted, actual


def build_structure_only_kertbn(
    workflow: WorkflowNode,
    data: Dataset,
    response: str = "D",
    min_variance: float = 1e-9,
) -> KERTBN:
    """Ablation: workflow knowledge for the *structure* only.

    The DAG still comes from the workflow (no structure learning), but
    the response CPD is a plain learned linear-Gaussian over all service
    nodes instead of Eq. 4's workflow-given ``f``.  Comparing this
    against the full KERT-BN isolates how much of the win comes from
    each knowledge injection (see
    ``benchmarks/test_ablation_knowledge.py``).
    """
    from repro.bn.network import GaussianBayesianNetwork

    knowledge = derive_knowledge(workflow, response)
    per_cpd: dict[str, float] = {}
    cpds = []
    param_timer = Timer()
    with param_timer:
        for node, parents in knowledge.families:
            cpd, secs = timed(
                fit_linear_gaussian, data, node, parents, min_variance=min_variance
            )
            per_cpd[node] = secs
            cpds.append(cpd)
    network = GaussianBayesianNetwork(knowledge.dag, cpds)
    report = BuildReport(
        model_kind="kert-bn/structure-only",
        structure_seconds=knowledge.seconds,
        parameter_seconds=param_timer.elapsed,
        per_cpd_seconds=per_cpd,
        n_nodes=network.dag.n_nodes,
        n_edges=network.dag.n_edges,
        n_parameters=network.n_parameters,
        n_training_rows=data.n_rows,
    )
    return KERTBN(network=network, f=knowledge.f, response=response, report=report)


def estimate_leak(
    f: ResponseTimeFunction,
    discretizer: Discretizer,
    data: Dataset,
    response: str,
    floor: float = 1e-3,
) -> float:
    """Estimate Eq. 4's leak ``l`` — the fraction of training rows whose
    *binned* response disagrees with ``f`` applied to binned inputs.

    Measurement noise and binning coarseness both feed ``l``; a small
    floor keeps the likelihood finite on clean data.
    """
    predicted, actual = _predicted_vs_actual_bins(f, discretizer, data, response)
    leak = float(np.mean(predicted != actual))
    return min(max(leak, floor), 0.99)


def calibrate_confusion(
    f: ResponseTimeFunction,
    discretizer: Discretizer,
    data: Dataset,
    response: str,
    leak: float,
    leak_decay: float,
    prior_strength: float = 5.0,
) -> np.ndarray:
    """One-pass calibration of the Eq.-4 CPD's miss structure.

    Counts how the measured response bin deviates from the ``f``-predicted
    bin and smooths the counts toward the geometric-decay prior.  This is
    still O(N + m²) — independent of the number of parents — so it keeps
    the paper's "no heavyweight ``P(D | X₁..Xₙ)`` learning" property while
    adapting the leak to the observed noise profile.
    """
    predicted, actual = _predicted_vs_actual_bins(f, discretizer, data, response)
    m = discretizer.cardinality(response)
    counts = np.zeros((m, m))
    np.add.at(counts, (predicted, actual), 1.0)
    # Geometric-decay prior (the uncalibrated transition), scaled.
    k = np.arange(m)
    if m == 1:
        return np.ones((1, 1))
    dist = np.abs(k[:, None] - k[None, :]).astype(float)
    weights = np.where(dist > 0, leak_decay ** (dist - 1.0), 0.0)
    z = weights.sum(axis=1, keepdims=True)
    prior = leak * weights / z
    prior[k, k] = 1.0 - leak
    smoothed = counts + prior_strength * prior
    return smoothed / smoothed.sum(axis=1, keepdims=True)


def build_discrete_kertbn(
    workflow: WorkflowNode,
    data: Dataset,
    response: str = "D",
    n_bins: int = 5,
    alpha: float = 1.0,
    leak_decay: float = 0.5,
    leak_model: str = "confusion",
    resource_groups: "Mapping[str, tuple[str, ...]] | None" = None,
    discretizer: "Discretizer | None" = None,
) -> KERTBN:
    """Build the discrete KERT-BN of Section 5 (eDiaMoND applications).

    The response CPD is the Eq.-4 table: mass ``1 - l`` on the bin of
    ``f``(bin centers), leak ``l`` estimated from training data.
    ``leak_model`` selects how the leaked mass is spread:
    ``"uniform"`` (the literal Eq. 4), ``"geometric"`` (distance-decayed),
    or ``"confusion"`` (default; decay prior calibrated by one O(N)
    counting pass — see :func:`calibrate_confusion`).
    Resource-sharing nodes (if named in ``resource_groups`` with matching
    columns in ``data``) carry learned tabular CPDs.
    """
    if leak_model not in ("uniform", "geometric", "confusion"):
        raise LearningError(
            f"leak_model must be uniform|geometric|confusion, got {leak_model!r}"
        )
    f = response_time_function(workflow)
    # The "structure phase" that replaces NRT-BN's structure search in
    # the Fig. 3/4 comparisons.
    dag, structure_seconds = timed(
        kert_bn_structure, workflow, response=response, resource_groups=resource_groups
    )

    if discretizer is None:
        discretizer = Discretizer(n_bins=n_bins).fit(
            data, [str(n) for n in dag.nodes if str(n) in data]
        )
    missing = [str(n) for n in dag.nodes if str(n) not in data]
    if missing:
        raise LearningError(f"data lacks columns for nodes {missing}")
    binned = discretizer.transform(data, [str(n) for n in dag.nodes])
    cards = discretizer.cardinalities()

    per_cpd: dict[str, float] = {}
    cpds = []
    param_timer = Timer()
    with param_timer:
        leak, leak_secs = timed(estimate_leak, f, discretizer, data, response)
        transition = None
        if leak_model == "confusion":
            transition, conf_secs = timed(
                calibrate_confusion, f, discretizer, data, response, leak, leak_decay
            )
            leak_secs += conf_secs
        for node in dag.nodes:
            node = str(node)
            parents = tuple(map(str, dag.parents(node)))
            if node == response:
                def make_response_cpd():
                    return DeterministicCPD(
                        node,
                        f,
                        parents,
                        {p: discretizer.centers(p) for p in parents},
                        discretizer.edges(response),
                        leak=leak,
                        leak_decay=1.0 if leak_model == "uniform" else leak_decay,
                        transition=transition,
                    )

                cpd, secs = timed(make_response_cpd)
                secs += leak_secs
            else:
                cpd, secs = timed(
                    fit_tabular, binned, node, cards[node], parents,
                    tuple(cards[p] for p in parents), alpha,
                )
            per_cpd[node] = secs
            cpds.append(cpd)
    network = DiscreteBayesianNetwork(dag, cpds)
    report = BuildReport(
        model_kind="kert-bn/discrete",
        structure_seconds=structure_seconds,
        parameter_seconds=param_timer.elapsed,
        per_cpd_seconds=per_cpd,
        n_nodes=dag.n_nodes,
        n_edges=dag.n_edges,
        n_parameters=network.n_parameters,
        n_training_rows=data.n_rows,
        extra={"leak": leak, "n_bins": n_bins},
    )
    return KERTBN(
        network=network, f=f, response=response, report=report, discretizer=discretizer
    )
