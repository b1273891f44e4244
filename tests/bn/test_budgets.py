"""SLO budget decomposition: composition bound, allocation, blame."""

import json

import numpy as np
import pytest

from repro.bn.budgets import (
    allocate_budgets,
    budget_composition,
    derive_budgets,
    discrete_blame,
    model_marginals,
    normal_blame,
)
from repro.exceptions import ReproError
from repro.workflow.constructs import (
    Activity,
    Choice,
    Loop,
    Parallel,
    Sequence,
)
from repro.workflow.expressions import Max, Sum, Var


# --------------------------------------------------------------------- #
# budget_composition: the structural bound g
# --------------------------------------------------------------------- #


def test_sequence_composes_as_sum():
    wf = Sequence([Activity("a"), Activity("b")])
    g = budget_composition(wf)
    assert g.to_string() == Sum([Var("a"), Var("b")]).to_string()


def test_parallel_composes_as_max():
    wf = Parallel([Activity("a"), Activity("b")])
    assert (
        budget_composition(wf).to_string()
        == Max([Var("a"), Var("b")]).to_string()
    )


def test_choice_composes_as_max_not_sum():
    # Measurement mode reduces a choice to a sum over its (all-but-one
    # zero) branch columns; a *budget* bound covers the single branch
    # that actually runs, so the recomposition takes the max instead.
    wf = Choice([Activity("a"), Activity("b")], probabilities=[0.3, 0.7])
    assert (
        budget_composition(wf).to_string()
        == Max([Var("a"), Var("b")]).to_string()
    )


def test_loop_composes_as_its_body():
    # Measured per-service totals already accumulate loop iterations,
    # so the budget bound for the loop is the bound of its body.
    wf = Loop(Sequence([Activity("a"), Activity("b")]), continue_prob=0.5)
    assert (
        budget_composition(wf).to_string()
        == Sum([Var("a"), Var("b")]).to_string()
    )


def test_ediamond_composition_matches_f():
    from repro.simulator.scenarios.ediamond import ediamond_workflow

    g = budget_composition(ediamond_workflow())
    assert set(g.inputs) == {"X1", "X2", "X3", "X4", "X5", "X6"}
    x = {n: np.asarray([0.1 * i]) for i, n in enumerate(sorted(g.inputs), 1)}
    # D = X1 + X2 + max(X3 + X5, X4 + X6)
    assert float(g(x)[0]) == pytest.approx(0.1 + 0.2 + max(0.3 + 0.5, 0.4 + 0.6))


# --------------------------------------------------------------------- #
# allocate_budgets: maximal budgets under the composition invariant
# --------------------------------------------------------------------- #

MARGINALS = {"a": (1.0, 0.2), "b": (2.0, 0.4), "c": (0.5, 0.1)}


def _g():
    return Sum([Var("a"), Max([Var("b"), Var("c")])])


def test_allocation_pins_the_recomposition_to_the_sla():
    alloc = allocate_budgets(_g(), MARGINALS, sla=5.0, target=0.1)
    assert alloc.feasible
    # Maximal slack: the recomposed bound g(b) sits on the SLA.
    assert alloc.composed == pytest.approx(5.0, rel=1e-9)
    x = {sb.service: np.asarray([sb.budget]) for sb in alloc.budgets}
    assert float(_g()(x)[0]) == pytest.approx(5.0, rel=1e-9)


def test_budgets_are_monotone_in_the_sla():
    tight = allocate_budgets(_g(), MARGINALS, sla=4.0, target=0.2)
    loose = allocate_budgets(_g(), MARGINALS, sla=6.0, target=0.2)
    for t, lo in zip(tight.budgets, loose.budgets):
        assert t.service == lo.service
        assert t.budget < lo.budget


def test_union_bound_holds_empirically():
    # Simulate the marginals independently: honoring every budget
    # forces D <= sla (monotonicity), so P(D > sla) <= sum of the
    # per-service tail masses — the allocation's advertised guarantee.
    alloc = allocate_budgets(_g(), MARGINALS, sla=5.0, target=0.2)
    assert alloc.feasible
    rng = np.random.default_rng(11)
    n = 200_000
    draws = {
        s: rng.normal(m, sd, size=n) for s, (m, sd) in MARGINALS.items()
    }
    d = draws["a"] + np.maximum(draws["b"], draws["c"])
    assert np.mean(d > 5.0) <= alloc.tail_total * 1.05 + 1e-4


def test_infeasible_when_means_already_exceed_sla():
    alloc = allocate_budgets(_g(), MARGINALS, sla=2.0, target=0.1)
    assert not alloc.feasible
    assert alloc.slack == 0.0


def test_infeasible_when_tail_budget_cannot_be_met():
    # Feasible composition but the target is stricter than the union
    # bound at the maximal slack allows.
    alloc = allocate_budgets(_g(), MARGINALS, sla=3.5, target=1e-6)
    assert alloc.composed <= 3.5 * (1 + 1e-9)
    assert not alloc.feasible
    assert alloc.tail_total > 1e-6


def test_unreachably_large_sla_is_feasible_with_huge_slack():
    # A parked policy (threshold=1e6) must not break budget derivation;
    # budgets become enormous and never breach.
    alloc = allocate_budgets(_g(), MARGINALS, sla=1e6, target=0.1)
    assert alloc.feasible
    assert all(sb.budget > 1e3 for sb in alloc.budgets)


def test_validation_errors():
    with pytest.raises(ReproError):
        allocate_budgets(_g(), MARGINALS, sla=-1.0, target=0.1)
    with pytest.raises(ReproError):
        allocate_budgets(_g(), MARGINALS, sla=5.0, target=0.0)
    with pytest.raises(ReproError):
        allocate_budgets(_g(), {"a": (1.0, 0.1)}, sla=5.0, target=0.1)


def test_allocation_round_trips_through_dict():
    alloc = allocate_budgets(_g(), MARGINALS, sla=5.0, target=0.1)
    payload = alloc.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["sla"] == alloc.sla and payload["slack"] == alloc.slack
    assert {b["service"]: b["budget"] for b in payload["budgets"]} == (
        alloc.as_mapping()
    )
    mapping = alloc.as_mapping()
    assert set(mapping) == set(MARGINALS)
    assert mapping == {sb.service: sb.budget for sb in alloc.budgets}


# --------------------------------------------------------------------- #
# model-facing derivation + blame
# --------------------------------------------------------------------- #


def test_derive_budgets_continuous(ediamond_continuous_model):
    alloc = derive_budgets(ediamond_continuous_model, sla=3.5, target=0.1)
    assert alloc.feasible
    assert set(alloc.as_mapping()) == set(
        ediamond_continuous_model.f.expression.inputs
    )
    # Composition invariant against the model's own f: honoring every
    # budget keeps the recomposed response at or under the SLA.
    f = ediamond_continuous_model.f.expression
    x = {sb.service: np.asarray([sb.budget]) for sb in alloc.budgets}
    assert float(f(x)[0]) <= 3.5 * (1 + 1e-9)
    assert alloc.tail_total <= 0.1 + 1e-9


def test_derive_budgets_discrete_matches_continuous_scale(
    ediamond_discrete_model, ediamond_continuous_model
):
    alloc_d = derive_budgets(ediamond_discrete_model, sla=3.5, target=0.1)
    alloc_c = derive_budgets(ediamond_continuous_model, sla=3.5, target=0.1)
    continuous = {sb.service: sb for sb in alloc_c.budgets}
    for sb_d in alloc_d.budgets:
        sb_c = continuous[sb_d.service]
        # Same data, two discretizations of the same marginals: means
        # agree closely, budgets within a coarse-binning tolerance.
        assert sb_d.mean == pytest.approx(sb_c.mean, rel=0.15)
        assert sb_d.budget == pytest.approx(sb_c.budget, rel=0.5)


def test_model_marginals_continuous_match_training_data(
    ediamond_continuous_model, ediamond_data
):
    train, _ = ediamond_data
    marg = model_marginals(ediamond_continuous_model)
    for name, (mean, std) in marg.items():
        col = np.asarray(train[name], dtype=float)
        assert mean == pytest.approx(float(col.mean()), rel=0.05)
        assert std == pytest.approx(float(col.std()), rel=0.25)


def test_model_marginals_equal_the_subnetwork_joint(ediamond_continuous_model):
    """The marginals read the model's cached assessor joint and equal the
    service subnetwork's joint Gaussian bit for bit."""
    import math

    from repro.bn.inference.gaussian import joint_gaussian

    network = ediamond_continuous_model.network
    names, mean, cov = joint_gaussian(network.service_subnetwork())
    expected = {
        n: (float(mean[i]), math.sqrt(max(float(cov[i, i]), 0.0)))
        for i, n in enumerate(names)
    }
    marginals = model_marginals(ediamond_continuous_model)
    assert list(marginals.items()) == list(expected.items())


def test_derive_budgets_rejects_models_without_f():
    class NoF:
        f = None

    with pytest.raises(ReproError):
        derive_budgets(NoF(), sla=1.0, target=0.1)


def test_normal_blame_ranks_the_dominant_service(ediamond_continuous_model):
    from repro.apps.assessment import RapidAssessor

    assessor = RapidAssessor(ediamond_continuous_model)
    d_mean, d_var, moments = assessor.response_moments()
    alloc = derive_budgets(ediamond_continuous_model, sla=3.5, target=0.1)
    blame = normal_blame(moments, d_mean, d_var, alloc.as_mapping(), 2.5)
    assert set(blame) == set(alloc.as_mapping())
    assert all(0.0 <= v <= 1.0 for v in blame.values())
    # X6 dominates eDiaMoND's critical path; it must carry the most blame.
    assert max(blame, key=blame.get) == "X6"


def test_response_moments_match_assess(ediamond_continuous_model):
    from repro.apps.assessment import RapidAssessor

    assessor = RapidAssessor(ediamond_continuous_model)
    d_mean, d_var, moments = assessor.response_moments()
    m, v = assessor.assess()
    assert d_mean == pytest.approx(m)
    assert d_var == pytest.approx(v)
    # cov(X_i, D) <= sqrt(var_i * var_D) (Cauchy-Schwarz, post-Clark).
    for mean, var, cov in moments.values():
        assert abs(cov) <= np.sqrt(var * d_var) * (1 + 1e-9)


def test_discrete_blame_ranks_the_dominant_service(ediamond_discrete_model):
    model = ediamond_discrete_model
    alloc = derive_budgets(model, sla=3.5, target=0.1)
    engine = model.network.compiled()
    blame = discrete_blame(
        engine, model.discretizer, model.response, alloc.as_mapping(), 2.0
    )
    assert all(0.0 <= v <= 1.0 for v in blame.values())
    assert max(blame, key=blame.get) == "X6"


def test_discrete_blame_zero_when_no_breach_mass(ediamond_discrete_model):
    model = ediamond_discrete_model
    alloc = derive_budgets(model, sla=3.5, target=0.1)
    engine = model.network.compiled()
    top_edge = float(model.discretizer.edges(model.response)[-1])
    blame = discrete_blame(
        engine,
        model.discretizer,
        model.response,
        alloc.as_mapping(),
        top_edge + 1.0,
    )
    assert all(v == 0.0 for v in blame.values())
