"""Figure 6 — dComp: posterior vs prior distribution of X4.

Paper setup (Section 5.1): discrete KERT-BN on the eDiaMoND test-bed
(T_DATA = 20 s, K = 10, T_CON = 20 min, 1200 training points); dComp
infers the posterior of the unobservable X4 (image_locator_remote) from
observed means of the remaining variables.

Expected shape: the posterior shifts from the (stale) prior toward the
actual elapsed time and concentrates ("more deterministic and precise").
The drift scenario makes the prior stale: the remote WAN degrades after
model construction, so X4's real mean rises above what the training data
showed.
"""

import numpy as np
import pytest

from _util import emit_series

from repro.apps.dcomp import DComp
from repro.core.kertbn import build_discrete_kertbn
from repro.core.reconstruction import ReconstructionSchedule
from repro.simulator.scenarios.ediamond import ediamond_scenario

SCHEDULE = ReconstructionSchedule.from_training_size(1200, k=10, t_data=20.0)


@pytest.fixture(scope="module")
def fig6_result():
    env = ediamond_scenario()
    train = env.simulate(SCHEDULE.n_points, rng=61_001)
    model = build_discrete_kertbn(env.workflow, train, n_bins=5)

    # Environment drift after construction: remote link degrades.
    drifted = ediamond_scenario(wan_delay=0.6)
    current = drifted.simulate(400, rng=61_002)
    actual_x4 = float(np.mean(current["X4"]))
    observed = {
        c: float(np.mean(current[c])) for c in current.columns if c != "X4"
    }
    result = DComp(model).posterior("X4", observed)
    return result, actual_x4


def test_fig6_posterior_vs_prior(fig6_result, benchmark):
    result, actual_x4 = fig6_result

    rows = [
        {
            "bin_center": float(c),
            "prior": float(p),
            "posterior": float(q),
        }
        for c, p, q in zip(result.centers, result.prior, result.posterior)
    ]
    rows.append(
        {
            "bin_center": "mean/std",
            "prior": f"{result.prior_mean:.3f}±{result.prior_std:.3f}",
            "posterior": f"{result.posterior_mean:.3f}±{result.posterior_std:.3f}",
        }
    )
    rows.append({"bin_center": "actual_x4", "prior": "", "posterior": f"{actual_x4:.3f}"})
    emit_series("fig6", "dComp posterior vs prior of X4 under WAN drift", rows, timing=())

    # Shape assertions: shift toward the (higher) actual value...
    assert result.posterior_mean > result.prior_mean
    assert result.shift_toward(actual_x4) > 0
    # ...and concentration (entropy over bins drops).
    def entropy(pmf):
        p = pmf[pmf > 0]
        return float(-(p * np.log(p)).sum())

    assert entropy(result.posterior) < entropy(result.prior)

    # Timed unit: one dComp posterior query (the autonomic-loop cost).
    env = ediamond_scenario()
    train = env.simulate(SCHEDULE.n_points, rng=61_003)
    model = build_discrete_kertbn(env.workflow, train, n_bins=5)
    current = env.simulate(100, rng=61_004)
    observed = {c: float(np.mean(current[c])) for c in current.columns if c != "X4"}
    dcomp = DComp(model)
    benchmark.pedantic(
        dcomp.posterior, args=("X4", observed), rounds=5, iterations=1
    )
