"""Serialization round-trips for expressions, CPDs and networks."""

import json

import numpy as np
import pytest

from repro.bn.io import (
    cpd_from_dict,
    cpd_to_dict,
    expression_from_dict,
    expression_to_dict,
    network_from_dict,
    network_to_dict,
)
from repro.exceptions import DataError
from repro.workflow.expressions import Max, Sum, Var


def test_expression_roundtrip_all_kinds():
    expr = Sum([Var("a"), Max([Var("b"), Sum([Var("c"), Var("d")])])])
    loaded = expression_from_dict(json.loads(json.dumps(expression_to_dict(expr))))
    vals = {k: np.array([2.0]) for k in "abcd"}
    np.testing.assert_allclose(loaded(vals), expr(vals))
    assert loaded.to_string() == expr.to_string()


def test_expression_unknown_spec():
    with pytest.raises(DataError):
        expression_from_dict({"bogus": 1})


@pytest.mark.parametrize(
    "spec",
    [
        {"scale": 2.0, "term": {"var": "a"}},
        {"weighted_sum": [{"weight": 1.0, "term": {"var": "a"}}]},
    ],
)
def test_expression_without_a_workflow_reduction_is_refused(spec):
    """``f`` reduces to Var, Sum and Max only; other node kinds do not load."""
    with pytest.raises(DataError):
        expression_from_dict(spec)


def test_tabular_cpd_roundtrip(rng):
    from repro.bn.cpd import TabularCPD

    cpd = TabularCPD.random("x", 3, rng, ("p",), (2,))
    loaded = cpd_from_dict(json.loads(json.dumps(cpd_to_dict(cpd))))
    np.testing.assert_allclose(loaded.values, cpd.values)
    assert loaded.parents == cpd.parents


def test_linear_gaussian_cpd_roundtrip():
    from repro.bn.cpd import LinearGaussianCPD

    cpd = LinearGaussianCPD("x", 1.5, [2.0, -0.5], 0.7, ("a", "b"))
    loaded = cpd_from_dict(cpd_to_dict(cpd))
    assert loaded == cpd


def test_unknown_cpd_kind():
    with pytest.raises(DataError):
        cpd_from_dict({"kind": "martian"})


def test_gaussian_network_roundtrip(chain_gaussian_net, rng):
    spec = json.loads(json.dumps(network_to_dict(chain_gaussian_net)))
    loaded = network_from_dict(spec)
    data = chain_gaussian_net.sample(200, rng)
    assert loaded.log10_likelihood(data) == pytest.approx(
        chain_gaussian_net.log10_likelihood(data)
    )
    assert type(loaded).__name__ == "GaussianBayesianNetwork"


def test_discrete_kertbn_network_roundtrip(ediamond_discrete_model, ediamond_data):
    _, test = ediamond_data
    net = ediamond_discrete_model.network
    spec = json.loads(json.dumps(network_to_dict(net)))
    loaded = network_from_dict(spec)
    binned = ediamond_discrete_model.discretizer.transform(test)
    assert loaded.log10_likelihood(binned) == pytest.approx(
        net.log10_likelihood(binned)
    )


def test_hybrid_kertbn_network_roundtrip(ediamond_continuous_model, ediamond_data):
    _, test = ediamond_data
    net = ediamond_continuous_model.network
    spec = json.loads(json.dumps(network_to_dict(net)))
    loaded = network_from_dict(spec)
    assert spec["kind"] == "hybrid"
    assert loaded.response == "D"
    assert loaded.log10_likelihood(test) == pytest.approx(
        net.log10_likelihood(test)
    )
    # The reloaded f still evaluates (max survives the round trip).
    samples = loaded.response_distribution(n_samples=2000, rng=0)
    assert np.isfinite(samples).all()


def test_unknown_network_kind():
    with pytest.raises(DataError):
        network_from_dict({"kind": "quantum", "nodes": [], "edges": [], "cpds": []})
