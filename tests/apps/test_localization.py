"""Problem localization on the eDiaMoND scenario."""

import numpy as np
import pytest

from repro.apps.localization import ProblemLocalizer
from repro.core.kertbn import build_continuous_kertbn
from repro.exceptions import InferenceError
from repro.simulator.scenarios.ediamond import ediamond_scenario


@pytest.fixture(scope="module")
def localizer():
    env = ediamond_scenario()
    train = env.simulate(800, rng=55)
    model = build_continuous_kertbn(env.workflow, train)
    return ProblemLocalizer(model), env


def observed_means(data):
    return {c: float(np.mean(data[c])) for c in data.columns if c != "D"}


def test_validation(localizer):
    loc, _ = localizer
    with pytest.raises(InferenceError):
        loc.localize({})
    with pytest.raises(InferenceError):
        loc.localize({"ghost": 1.0})


def test_non_finite_observation_is_rejected(localizer):
    """A NaN or infinite mean would get blame NaN/inf and outrank the real
    culprit; localize names the offending services instead."""
    loc, _ = localizer
    x6 = 3.0 * float(loc._mean[loc._index["X6"]])
    with pytest.raises(InferenceError, match=r"\['X2'\]"):
        loc.localize({"X2": float("nan"), "X6": x6})
    with pytest.raises(InferenceError, match=r"\['X1', 'X2'\]"):
        loc.localize({"X1": float("nan"), "X2": -float("inf"), "X6": x6})


def test_degraded_service_ranks_first(localizer):
    loc, _ = localizer
    # Degrade X5 (the local OGSA-DAI database) hard.
    degraded = ediamond_scenario(service_speedups={"X5": 3.0})
    current = degraded.simulate(400, rng=56)
    suspects = loc.localize(observed_means(current))
    assert suspects[0].service == "X5"
    assert suspects[0].z_score > 2  # clearly anomalous
    assert suspects[0].projected_d_shift > 0  # explains the slowdown


def test_healthy_environment_low_blame(localizer):
    loc, env = localizer
    healthy = env.simulate(400, rng=57)
    suspects = loc.localize(observed_means(healthy))
    degraded = ediamond_scenario(service_speedups={"X4": 4.0})
    bad = loc.localize(observed_means(degraded.simulate(400, rng=58)))
    assert bad[0].blame > 5 * suspects[0].blame


def test_parallel_shadowing(localizer):
    """Degrading the *fast* parallel branch barely moves D — the blame
    score must reflect end-to-end impact, not just local anomaly."""
    loc, _ = localizer
    # X3/X5 (local branch) is the FAST branch; X4/X6 the slow one.
    light = ediamond_scenario(service_speedups={"X3": 1.8})
    heavy = ediamond_scenario(service_speedups={"X4": 1.8})
    s_light = loc.localize(observed_means(light.simulate(500, rng=59)))
    s_heavy = loc.localize(observed_means(heavy.simulate(500, rng=60)))
    light_x3 = next(s for s in s_light if s.service == "X3")
    heavy_x4 = next(s for s in s_heavy if s.service == "X4")
    # Similar local anomaly, very different end-to-end impact.
    assert heavy_x4.projected_d_shift > light_x3.projected_d_shift


def test_top_k_and_rows(localizer):
    loc, env = localizer
    current = env.simulate(200, rng=61)
    suspects = loc.localize(observed_means(current), top=3)
    assert len(suspects) == 3
    row = suspects[0].row()
    assert {"service", "z", "blame"} <= set(row)
    blames = [s.blame for s in suspects]
    assert blames == sorted(blames, reverse=True)
