"""KERT-BN builders: structure provenance, Eq.-4 CPD, cost accounting."""

import numpy as np
import pytest

from repro.bn.cpd import DeterministicCPD, LinearGaussianCPD, NoisyDeterministicCPD
from repro.bn.network import DiscreteBayesianNetwork, HybridResponseNetwork
from repro.core.kertbn import (
    build_continuous_kertbn,
    build_discrete_kertbn,
    calibrate_confusion,
    estimate_leak,
)
from repro.exceptions import LearningError


def test_continuous_structure_is_knowledge_given(ediamond_env, ediamond_data):
    train, _ = ediamond_data
    model = build_continuous_kertbn(ediamond_env.workflow, train)
    dag = model.network.dag
    assert set(dag.parents("D")) == set(ediamond_env.service_names)
    assert dag.has_edge("X2", "X3")
    assert dag.has_edge("X3", "X5")
    assert not dag.has_edge("X3", "X4")  # parallel branches not linked


def test_continuous_cpd_families(ediamond_continuous_model):
    net = ediamond_continuous_model.network
    assert isinstance(net, HybridResponseNetwork)
    assert isinstance(net.cpd("D"), NoisyDeterministicCPD)
    for s in ("X1", "X2", "X3", "X4", "X5", "X6"):
        assert isinstance(net.cpd(s), LinearGaussianCPD)


def test_continuous_report_accounting(ediamond_continuous_model):
    rep = ediamond_continuous_model.report
    assert rep.model_kind == "kert-bn/continuous"
    assert rep.n_nodes == 7
    assert rep.construction_seconds == pytest.approx(
        rep.structure_seconds + rep.parameter_seconds
    )
    assert set(rep.per_cpd_seconds) == {"X1", "X2", "X3", "X4", "X5", "X6", "D"}
    assert rep.n_training_rows == 600


def test_continuous_response_variance_reflects_noise(ediamond_env):
    noisy_env_data = ediamond_env.simulate(400, rng=42)
    model = build_continuous_kertbn(ediamond_env.workflow, noisy_env_data)
    # Residual sigma should be small but nonzero (monitoring noise).
    assert 0 < model.network.cpd("D").variance < 0.5


def test_continuous_rejects_resource_groups(ediamond_env, ediamond_data):
    train, _ = ediamond_data
    with pytest.raises(LearningError):
        build_continuous_kertbn(
            ediamond_env.workflow, train, resource_groups={"R": ("X1", "X2")}
        )


def test_continuous_loglik_beats_shuffled_response(ediamond_env, ediamond_data):
    """Sanity: the workflow-given f must explain D far better than chance."""
    train, test = ediamond_data
    model = build_continuous_kertbn(ediamond_env.workflow, train)
    good = model.log10_likelihood(test)
    # Scoring a dataset whose D column is shuffled destroys the f link.
    rng = np.random.default_rng(0)
    cols = {c: np.asarray(test[c]) for c in test.columns}
    cols["D"] = rng.permutation(cols["D"])
    from repro.bn.data import Dataset

    bad = model.log10_likelihood(Dataset(cols))
    assert good > bad + 50


def test_discrete_model_families(ediamond_discrete_model):
    net = ediamond_discrete_model.network
    assert isinstance(net, DiscreteBayesianNetwork)
    assert isinstance(net.cpd("D"), DeterministicCPD)
    assert ediamond_discrete_model.discretizer is not None


def test_discrete_leak_estimated_in_range(ediamond_discrete_model):
    leak = ediamond_discrete_model.report.extra["leak"]
    assert 0.001 <= leak <= 0.99


def test_discrete_leak_grows_with_noise(ediamond_env):
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    quiet = ediamond_scenario(measurement_noise=0.0)
    loud = ediamond_scenario(measurement_noise=0.15)
    tq = quiet.simulate(500, rng=1)
    tl = loud.simulate(500, rng=1)
    mq = build_discrete_kertbn(quiet.workflow, tq, n_bins=4)
    ml = build_discrete_kertbn(loud.workflow, tl, n_bins=4)
    assert ml.report.extra["leak"] > mq.report.extra["leak"]


def test_discrete_leak_model_options(ediamond_env, ediamond_data):
    train, test = ediamond_data
    scores = {}
    for lm in ("uniform", "geometric", "confusion"):
        m = build_discrete_kertbn(ediamond_env.workflow, train, n_bins=4, leak_model=lm)
        scores[lm] = m.log10_likelihood(test)
    # Calibration can only help (on in-distribution test data).
    assert scores["confusion"] >= scores["uniform"] - 5
    with pytest.raises(LearningError):
        build_discrete_kertbn(ediamond_env.workflow, train, leak_model="bogus")


def test_discrete_missing_column_rejected(ediamond_env, ediamond_data):
    train, _ = ediamond_data
    with pytest.raises(LearningError):
        build_discrete_kertbn(
            ediamond_env.workflow, train, resource_groups={"R_x": ("X1", "X2")}
        )  # no R_x column in data


def test_estimate_leak_and_confusion_consistency(ediamond_env, ediamond_data):
    from repro.bn.discretize import Discretizer
    from repro.workflow.response_time import response_time_function

    train, _ = ediamond_data
    f = response_time_function(ediamond_env.workflow)
    disc = Discretizer(n_bins=4).fit(train)
    leak = estimate_leak(f, disc, train, "D")
    t = calibrate_confusion(f, disc, train, "D", leak, 0.5)
    assert t.shape == (4, 4)
    np.testing.assert_allclose(t.sum(axis=1), 1.0)
    # Diagonal should dominate: f predicts the right bin most of the time.
    assert np.all(np.diag(t) > 1.0 / 4)


def test_kertbn_scores_raw_data_through_discretizer(ediamond_discrete_model, ediamond_data):
    _, test = ediamond_data
    # Raw continuous test data must be accepted directly.
    score = ediamond_discrete_model.log10_likelihood(test)
    assert np.isfinite(score)


# --------------------------------------------------------------------- #
# Workflow knowledge derived once, CPDs refitted per window
# --------------------------------------------------------------------- #


def _same_cpds(a, b):
    for node in a.network.nodes:
        ca, cb = a.network.cpd(node), b.network.cpd(node)
        assert ca.parents == cb.parents
        assert ca.variance == cb.variance
        if isinstance(ca, LinearGaussianCPD):
            assert ca.intercept == cb.intercept
            np.testing.assert_array_equal(ca.coefficients, cb.coefficients)


def test_refit_from_knowledge_equals_full_build(ediamond_env, ediamond_data):
    from repro.core.kertbn import derive_knowledge

    train, _ = ediamond_data
    knowledge = derive_knowledge(ediamond_env.workflow)
    refit = build_continuous_kertbn(knowledge, train)
    _same_cpds(refit, build_continuous_kertbn(ediamond_env.workflow, train))
    assert refit.f is knowledge.f
    assert refit.report.structure_seconds == knowledge.seconds > 0
    assert set(refit.report.per_cpd_seconds) == set(refit.network.nodes)
    assert refit.report.parameter_seconds >= sum(refit.report.per_cpd_seconds.values())
    with pytest.raises(LearningError):
        build_continuous_kertbn(knowledge, train, response="R")


def test_knowledge_layout_is_hash_order_free(ediamond_env):
    """Block indices, families and the service order follow the workflow's
    document order; CI runs this file under two ``PYTHONHASHSEED`` values."""
    from repro.core.kertbn import derive_knowledge

    knowledge = derive_knowledge(ediamond_env.workflow)
    assert knowledge.columns == ("X1", "X2", "X3", "X5", "X4", "X6")
    assert [name for name, _ in knowledge.families] == [*knowledge.columns, "D"]
    blocks = {
        name: list(b)
        for (name, _), b in zip(knowledge.families, knowledge.blocks)
        if b is not None
    }
    assert blocks == {
        "X1": [0, 1], "X2": [0, 1, 2], "X3": [0, 2, 3],
        "X5": [0, 3, 4], "X4": [0, 2, 5], "X6": [0, 5, 6],
    }
    assert knowledge.blocks[-1] is None


def _mixed80():
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    spec = ScenarioSpec("mixed", 80, "gg1", arrivals="diurnal", failure_storm=True)
    return build_scenario(spec, seed=20260808).env


def test_block_fits_match_per_cpd_fits_on_mixed80():
    """The window's moment-block fits against one ``fit_linear_gaussian``
    per CPD on the same window."""
    from repro.bn.learning.mle import fit_linear_gaussian
    from repro.core.kertbn import derive_knowledge

    env = _mixed80()
    window = env.simulate(120, rng=5)
    knowledge = derive_knowledge(env.workflow)
    model = build_continuous_kertbn(knowledge, window)
    net = model.network
    for node, parents in knowledge.families:
        if node == model.response:
            continue
        fitted, local = net.cpd(node), fit_linear_gaussian(window, node, parents)
        assert fitted.variance == pytest.approx(local.variance, rel=1e-12, abs=0)
        np.testing.assert_allclose(
            np.r_[fitted.intercept, fitted.coefficients],
            np.r_[local.intercept, local.coefficients],
            rtol=1e-10,
            atol=1e-12,
        )


def test_assessor_is_cached_out_of_sight(
    ediamond_env, ediamond_data, ediamond_discrete_model, tmp_path
):
    """One assessor per model, built on first use and kept outside the
    dataclass fields: equality, repr and persistence do not see it."""
    import dataclasses

    from repro.core.persistence import save_model
    from repro.exceptions import InferenceError

    train, _ = ediamond_data
    model = build_continuous_kertbn(ediamond_env.workflow, train)
    twin = dataclasses.replace(model)
    text = repr(model)
    assessor = model.assessor
    assert model.assessor is assessor and "assessor" not in vars(twin)
    assert repr(model) == text and model == twin
    assert "assessor" not in {f.name for f in dataclasses.fields(model)}
    save_model(model, str(tmp_path / "cached.json"))
    save_model(twin, str(tmp_path / "fresh.json"))
    cached = (tmp_path / "cached.json").read_bytes()
    assert cached == (tmp_path / "fresh.json").read_bytes()
    with pytest.raises(InferenceError):
        ediamond_discrete_model.assessor
