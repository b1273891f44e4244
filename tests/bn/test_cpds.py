"""Unit tests for the CPD families."""

import math

import numpy as np
import pytest

from repro.bn.cpd import (
    DeterministicCPD,
    LinearGaussianCPD,
    NoisyDeterministicCPD,
    TabularCPD,
)
from repro.bn.data import Dataset
from repro.exceptions import CPDError
from repro.workflow.expressions import Max, Sum, Var


# --------------------------------------------------------------------- #
# TabularCPD
# --------------------------------------------------------------------- #


def test_tabular_normalization_enforced():
    with pytest.raises(CPDError):
        TabularCPD("x", 2, np.array([0.9, 0.3]))
    with pytest.raises(CPDError):
        TabularCPD("x", 2, np.array([-0.1, 1.1]))


def test_tabular_shape_validation():
    with pytest.raises(CPDError):
        TabularCPD("x", 2, np.ones((3, 2)) / 3, ("p",), (2,))
    with pytest.raises(CPDError):
        TabularCPD("x", 2, np.full((2, 2), 0.5), ("p",), ())  # card mismatch


def test_tabular_own_parent_rejected():
    with pytest.raises(ValueError):
        TabularCPD("x", 2, np.full((2, 2), 0.5), ("x",), (2,))


def test_tabular_prob_lookup():
    cpd = TabularCPD(
        "x", 2, np.array([[0.2, 0.7], [0.8, 0.3]]), ("p",), (2,)
    )
    assert cpd.prob(0, {"p": 0}) == pytest.approx(0.2)
    assert cpd.prob(1, {"p": 1}) == pytest.approx(0.3)
    with pytest.raises(CPDError):
        cpd.prob(0, {})
    with pytest.raises(CPDError):
        cpd.prob(5, {"p": 0})
    with pytest.raises(CPDError):
        cpd.prob(0, {"p": 9})


def test_tabular_log_likelihood_matches_manual():
    cpd = TabularCPD("x", 2, np.array([[0.25, 0.5], [0.75, 0.5]]), ("p",), (2,))
    data = Dataset({"x": np.array([0, 1, 1]), "p": np.array([0, 0, 1])})
    ll = cpd.log_likelihood(data)
    np.testing.assert_allclose(ll, np.log([0.25, 0.75, 0.5]))


def test_tabular_sampling_frequencies(rng):
    cpd = TabularCPD("x", 3, np.array([0.1, 0.3, 0.6]))
    draws = cpd.sample({}, 20000, rng)
    freq = np.bincount(draws, minlength=3) / 20000
    np.testing.assert_allclose(freq, [0.1, 0.3, 0.6], atol=0.02)


def test_tabular_conditional_sampling(rng):
    cpd = TabularCPD("x", 2, np.array([[0.9, 0.1], [0.1, 0.9]]), ("p",), (2,))
    p = np.array([0] * 5000 + [1] * 5000)
    draws = cpd.sample({"p": p}, 10000, rng)
    assert np.mean(draws[:5000]) == pytest.approx(0.1, abs=0.02)
    assert np.mean(draws[5000:]) == pytest.approx(0.9, abs=0.02)


def test_tabular_to_factor_roundtrip():
    cpd = TabularCPD.random("x", 3, np.random.default_rng(1), ("p",), (2,))
    f = cpd.to_factor()
    assert f.variables == ("x", "p")
    np.testing.assert_allclose(f.values, cpd.values)


def test_tabular_uniform_and_random_are_normalized(rng):
    u = TabularCPD.uniform("x", 4, ("p", "q"), (2, 3))
    assert u.values.shape == (4, 2, 3)
    np.testing.assert_allclose(u.values.sum(axis=0), 1.0)
    r = TabularCPD.random("x", 4, rng, ("p",), (5,))
    np.testing.assert_allclose(r.values.sum(axis=0), 1.0)


def test_tabular_n_parameters():
    cpd = TabularCPD.uniform("x", 4, ("p", "q"), (2, 3))
    assert cpd.n_parameters == 3 * 6


# --------------------------------------------------------------------- #
# LinearGaussianCPD
# --------------------------------------------------------------------- #


def test_lg_validation():
    with pytest.raises(CPDError):
        LinearGaussianCPD("x", 0.0, [1.0], 1.0, ())  # coeff/parent mismatch
    with pytest.raises(CPDError):
        LinearGaussianCPD("x", 0.0, (), 0.0)  # zero variance


def test_lg_log_likelihood_is_gaussian_density():
    cpd = LinearGaussianCPD("x", 0.0, (), 2.0)
    data = Dataset({"x": np.array([0.0, 1.0])})
    ll = cpd.log_likelihood(data)
    expected = -0.5 * (np.log(2 * np.pi) + math.log(2.0) + np.array([0.0, 0.5]))
    np.testing.assert_allclose(ll, expected)


def test_lg_log_likelihood_with_parents_matches_scipy():
    from scipy.stats import norm

    cpd = LinearGaussianCPD("x", 1.0, [0.5], 0.7, ("p",))
    data = Dataset({"x": np.array([1.2, 0.3]), "p": np.array([2.0, -1.0])})
    ll = cpd.log_likelihood(data)
    mu = 1.0 + 0.5 * data["p"]
    np.testing.assert_allclose(ll, norm.logpdf(data["x"], mu, math.sqrt(0.7)))


def test_lg_sampling_moments(rng):
    cpd = LinearGaussianCPD("x", 2.0, [3.0], 0.25, ("p",))
    p = np.full(50000, 1.5)
    draws = cpd.sample({"p": p}, 50000, rng)
    assert draws.mean() == pytest.approx(2.0 + 4.5, abs=0.02)
    assert draws.std() == pytest.approx(0.5, abs=0.02)


def test_lg_n_parameters():
    assert LinearGaussianCPD("x", 0.0, (), 1.0).n_parameters == 2
    assert LinearGaussianCPD("x", 0.0, [1, 2], 1.0, ("a", "b")).n_parameters == 4


# --------------------------------------------------------------------- #
# DeterministicCPD (Eq. 4)
# --------------------------------------------------------------------- #


def det_cpd(leak=0.1, decay=1.0, edges=None):
    f = Sum([Var("a"), Var("b")])
    return DeterministicCPD(
        "d",
        f,
        ("a", "b"),
        {"a": np.array([0.0, 1.0]), "b": np.array([0.0, 1.0])},
        np.array([-0.5, 0.5, 1.5, 2.5]) if edges is None else edges,
        leak=leak,
        leak_decay=decay,
    )


def test_det_validation():
    f = Var("a")
    with pytest.raises(CPDError):
        DeterministicCPD("d", f, (), {}, np.array([0, 1]))
    with pytest.raises(CPDError):
        det_cpd(leak=1.0)
    with pytest.raises(CPDError):
        det_cpd(edges=np.array([1.0, 0.5]))  # not increasing
    with pytest.raises(CPDError):
        DeterministicCPD(
            "d", f, ("a",), {}, np.array([0.0, 1.0])
        )  # missing centers


def test_det_prob_vector_eq4():
    cpd = det_cpd(leak=0.1, decay=1.0)
    # a=1, b=1 -> f=2 -> bin 2; uniform leak over the other two bins.
    pmf = cpd.prob_vector({"a": 1, "b": 1})
    np.testing.assert_allclose(pmf, [0.05, 0.05, 0.9])
    assert pmf.sum() == pytest.approx(1.0)


def test_det_geometric_leak_prefers_neighbors():
    cpd = det_cpd(leak=0.2, decay=0.5, edges=np.linspace(-0.5, 4.5, 6))
    pmf = cpd.prob_vector({"a": 0, "b": 0})  # f=0 -> bin 0
    assert pmf[0] == pytest.approx(0.8)
    assert pmf[1] > pmf[2] > pmf[3] > pmf[4]
    assert pmf.sum() == pytest.approx(1.0)


def test_det_explicit_transition():
    t = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.1, 0.2, 0.7]])
    f = Sum([Var("a"), Var("b")])
    cpd = DeterministicCPD(
        "d", f, ("a", "b"),
        {"a": np.array([0.0, 1.0]), "b": np.array([0.0, 1.0])},
        np.array([-0.5, 0.5, 1.5, 2.5]),
        transition=t,
    )
    np.testing.assert_allclose(cpd.prob_vector({"a": 1, "b": 1}), t[2])
    with pytest.raises(CPDError):
        DeterministicCPD(
            "d", f, ("a", "b"),
            {"a": np.array([0.0, 1.0]), "b": np.array([0.0, 1.0])},
            np.array([-0.5, 0.5, 1.5, 2.5]),
            transition=np.ones((3, 3)),
        )


def test_det_log_likelihood_hits_and_misses():
    cpd = det_cpd(leak=0.1, decay=1.0)
    data = Dataset({"d": np.array([2, 0]), "a": np.array([1, 1]), "b": np.array([1, 1])})
    ll = cpd.log_likelihood(data)
    np.testing.assert_allclose(ll, np.log([0.9, 0.05]))


def test_det_zero_leak_sampling_is_deterministic(rng):
    cpd = det_cpd(leak=0.0)
    a = np.array([0, 1, 1])
    b = np.array([0, 0, 1])
    draws = cpd.sample({"a": a, "b": b}, 3, rng)
    np.testing.assert_array_equal(draws, [0, 1, 2])


def test_det_to_factor_columns_normalized():
    cpd = det_cpd(leak=0.15, decay=0.5)
    f = cpd.to_factor()
    assert f.variables == ("d", "a", "b")
    np.testing.assert_allclose(f.values.sum(axis=0), 1.0)


def test_det_to_factor_size_guard():
    cpd = det_cpd()
    with pytest.raises(CPDError):
        cpd.to_factor(max_size=2)


def test_det_max_expression():
    f = Max([Var("a"), Var("b")])
    cpd = DeterministicCPD(
        "d", f, ("a", "b"),
        {"a": np.array([0.0, 2.0]), "b": np.array([1.0, 3.0])},
        np.array([-0.5, 0.5, 1.5, 2.5, 3.5]),
        leak=0.0,
    )
    # a=1 (2.0), b=0 (1.0) -> max=2.0 -> bin 2
    assert cpd.prob_vector({"a": 1, "b": 0})[2] == 1.0


# --------------------------------------------------------------------- #
# NoisyDeterministicCPD
# --------------------------------------------------------------------- #


def test_noisy_det_loglik_and_sampling(rng):
    f = Sum([Var("a"), Var("b")])
    cpd = NoisyDeterministicCPD("d", f, ("a", "b"), variance=0.04)
    a = np.full(20000, 1.0)
    b = np.full(20000, 2.0)
    draws = cpd.sample({"a": a, "b": b}, 20000, rng)
    assert draws.mean() == pytest.approx(3.0, abs=0.01)
    assert draws.std() == pytest.approx(0.2, abs=0.01)

    data = Dataset({"d": np.array([3.0]), "a": np.array([1.0]), "b": np.array([2.0])})
    ll = cpd.log_likelihood(data)[0]
    assert ll == pytest.approx(-0.5 * (np.log(2 * np.pi) + np.log(0.04)))


def test_noisy_det_fit_variance():
    f = Sum([Var("a"), Var("b")])
    rng = np.random.default_rng(3)
    a = rng.normal(size=5000)
    b = rng.normal(size=5000)
    d = a + b + rng.normal(0, 0.3, size=5000)
    data = Dataset({"a": a, "b": b, "d": d})
    cpd = NoisyDeterministicCPD.fit_variance("d", f, ("a", "b"), data)
    assert cpd.variance == pytest.approx(0.09, rel=0.1)


def test_noisy_det_validation():
    f = Var("a")
    with pytest.raises(CPDError):
        NoisyDeterministicCPD("d", f, ("a",), variance=0.0)
    with pytest.raises(CPDError):
        NoisyDeterministicCPD("d", f, ())
