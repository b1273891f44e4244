"""End-to-end monitored data: complete trace → masked reports → learners.

A simulated window is one complete per-transaction trace; Section 5.1's
reporting failures are entries masked out of it with ``inject_missing``.
The lossy dataset then feeds dComp, the missing-data consumer the
paper describes.
"""

import numpy as np
import pytest

from repro.simulator.scenarios.ediamond import ediamond_scenario
from repro.simulator.traces import inject_missing


@pytest.fixture(scope="module")
def env():
    return ediamond_scenario()


def test_complete_trace_zero_fills_untaken_branches():
    """On a workflow with choices, a branch not taken is a 0, not a
    missing value: the complete trace has no NaNs."""
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    env = build_scenario(ScenarioSpec("mixed", 10, "gg1"), seed=20260808).env
    data = env.simulate(300, rng=1)
    services = data.to_array(env.service_names)
    assert not np.isnan(data.to_array()).any()
    assert (services == 0.0).any()  # some branch went untaken


def test_reporting_loss_creates_nans(env):
    trace = env.simulate(300, rng=11)
    lossy = inject_missing(trace, env.service_names, fraction=0.2, rng=11)
    nan_frac = float(np.isnan(lossy.to_array(env.service_names)).mean())
    assert 0.1 < nan_frac < 0.3
    # Response times are measured at the client and never lost.
    assert not np.isnan(lossy["D"]).any()
    # Masking only hides entries: every reported value is the trace's own.
    kept = ~np.isnan(lossy.to_array())
    np.testing.assert_array_equal(lossy.to_array()[kept], trace.to_array()[kept])


def test_dcomp_compensates_pipeline_blackout(env):
    """One service's reports go completely dark; dComp estimates it from
    the remaining reports — Section 5.1's use case, end to end."""
    from repro.apps.dcomp import DComp
    from repro.core.kertbn import build_continuous_kertbn

    train = env.simulate(500, rng=15)
    model = build_continuous_kertbn(env.workflow, train)

    trace = env.simulate(300, rng=16)
    current = inject_missing(trace, ["X5"])
    actual_x5 = float(np.mean(trace["X5"]))
    observed = {
        c: float(np.mean(current[c]))
        for c in current.columns
        if not np.isnan(current[c]).any()
    }
    assert "X5" not in observed
    result = DComp(model).posterior("X5", observed, rng=17)
    assert result.posterior_mean == pytest.approx(actual_x5, rel=0.25)
    assert result.posterior_std <= result.prior_std + 1e-9
