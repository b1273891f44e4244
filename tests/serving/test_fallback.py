"""The tiered fallback chain: degradation order, provenance, breakers."""

import time

import numpy as np
import pytest

from repro.exceptions import InferenceError
from repro.serving.breaker import CircuitBreaker
from repro.serving.fallback import (
    TIER_COMPILED,
    TIER_PRIOR,
    TIER_SAMPLING,
    TIER_SWEEP,
    FallbackChain,
)


def _boom(*args, **kwargs):
    raise RuntimeError("injected engine fault")


def _evidence(model):
    svc = next(n for n in model.network.nodes if n != model.response)
    return {svc: 1}


def test_healthy_chain_answers_tier_one(fresh_discrete_model):
    model = fresh_discrete_model
    chain = FallbackChain(model.network, rng=0)
    ans = chain.answer([model.response], _evidence(model))
    assert ans.tier == TIER_COMPILED and not ans.degraded
    assert ans.tier_errors == {}
    np.testing.assert_allclose(
        ans.values,
        model.network.compiled().query([model.response], _evidence(model)).values,
    )


def test_engine_fault_degrades_to_sweep(fresh_discrete_model):
    model = fresh_discrete_model
    chain = FallbackChain(model.network, rng=0)
    exact = chain.answer([model.response], _evidence(model)).values
    chain.engine.failure_hook = _boom
    ans = chain.answer([model.response], _evidence(model))
    assert ans.tier == TIER_SWEEP and ans.degraded and not ans.approximate
    assert "injected engine fault" in ans.tier_errors[TIER_COMPILED]
    # variable elimination is an independent exact path to the same posterior
    np.testing.assert_allclose(ans.values, exact, atol=1e-10)


def test_plan_compile_fault_is_answered_exactly_by_elimination(
    fresh_discrete_model,
):
    """The elimination tier shares no plans or cache with the engine."""
    from tests.bn._enumeration_oracle import posterior

    model = fresh_discrete_model
    chain = FallbackChain(model.network, rng=0)
    chain.engine._compile = _boom
    ans = chain.answer([model.response], _evidence(model))
    assert ans.tier == TIER_SWEEP and not ans.approximate
    assert "injected engine fault" in ans.tier_errors[TIER_COMPILED]
    np.testing.assert_allclose(
        ans.values,
        posterior(model.network, [model.response], _evidence(model)),
        atol=1e-9,
    )


def test_sweep_fault_degrades_to_sampling(fresh_discrete_model):
    from tests.bn._enumeration_oracle import posterior

    model = fresh_discrete_model
    chain = FallbackChain(model.network, rng=0, n_samples=4000)
    exact = posterior(model.network, [model.response], _evidence(model))
    chain.engine.failure_hook = _boom
    chain._sweep_pmf = _boom
    ans = chain.answer([model.response], _evidence(model))
    assert ans.tier == TIER_SAMPLING and ans.approximate
    assert set(ans.tier_errors) == {TIER_COMPILED, TIER_SWEEP}
    assert ans.values.sum() == pytest.approx(1.0)
    assert np.abs(ans.values - exact).sum() < 0.15  # statistically close


def test_everything_broken_still_answers_with_cached_prior(fresh_discrete_model):
    model = fresh_discrete_model
    chain = FallbackChain(model.network, rng=0)
    prior = model.network.compiled().prior(model.response).values
    chain.engine.failure_hook = _boom
    chain._sweep_pmf = _boom
    chain._sampling_pmf = _boom
    ans = chain.answer([model.response], _evidence(model))
    assert ans.tier == TIER_PRIOR and ans.approximate
    assert set(ans.tier_errors) == {TIER_COMPILED, TIER_SWEEP, TIER_SAMPLING}
    # priors were captured before the faults hit
    np.testing.assert_allclose(ans.values, prior)


def test_expired_deadline_skips_straight_to_prior(fresh_discrete_model):
    model = fresh_discrete_model
    chain = FallbackChain(model.network, rng=0)
    ans = chain.answer(
        [model.response], _evidence(model), deadline=time.monotonic() - 1.0
    )
    assert ans.tier == TIER_PRIOR
    assert all(e == "deadline exceeded" for e in ans.tier_errors.values())


def test_unknown_query_variable_is_a_caller_error(fresh_discrete_model):
    chain = FallbackChain(fresh_discrete_model.network, rng=0)
    with pytest.raises(InferenceError):
        chain.answer(["martian"], {})
    with pytest.raises(InferenceError):
        chain.answer([], {})


def test_breakers_trip_and_skip_the_broken_tier(fresh_discrete_model):
    model = fresh_discrete_model
    breaker = CircuitBreaker(failure_threshold=2, cooldown=100)
    chain = FallbackChain(
        model.network, rng=0, breakers={TIER_COMPILED: breaker}
    )
    chain.engine.failure_hook = _boom
    chain.answer([model.response], _evidence(model))
    chain.answer([model.response], _evidence(model))
    assert breaker.state == "open" and breaker.n_trips == 1
    # while open, tier one is not even attempted
    ans = chain.answer([model.response], _evidence(model))
    assert ans.tier_errors[TIER_COMPILED] == "circuit open"
    assert ans.tier == TIER_SWEEP


def test_joint_prior_is_product_of_marginals(fresh_discrete_model):
    model = fresh_discrete_model
    nodes = [n for n in model.network.nodes if n != model.response][:2]
    chain = FallbackChain(model.network, rng=0)
    joint = chain.prior(nodes)
    assert joint.shape == tuple(
        model.network.cardinalities[n] for n in nodes
    )
    assert joint.sum() == pytest.approx(1.0)


@pytest.mark.slow
def test_sampling_tier_converges_to_exact_posterior(fresh_discrete_model):
    """Heavier statistical check of the likelihood-weighting tier,
    scored against the enumeration oracle rather than the engine."""
    from tests.bn._enumeration_oracle import posterior

    model = fresh_discrete_model
    chain = FallbackChain(model.network, rng=1, n_samples=40_000)
    evidence = _evidence(model)
    exact = posterior(model.network, [model.response], evidence)
    approx = chain._sampling_pmf((model.response,), evidence)
    assert np.abs(approx - exact).sum() < 0.05
