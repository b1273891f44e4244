"""Figure 7 — pAccel: projected vs observed response time after
accelerating X4.

Paper setup (Section 5.2): with the discrete eDiaMoND KERT-BN, compute
the posterior response-time distribution given X4 reduced to ~90 % of
its mean (a local resource action), and compare against the response
times actually measured after applying the acceleration.

Expected shape: "the posterior response time provides a good
approximation of the actual improved response time mean".
"""

import numpy as np
import pytest

from _util import emit_series

from repro.apps.paccel import PAccel
from repro.core.kertbn import build_discrete_kertbn
from repro.core.reconstruction import ReconstructionSchedule
from repro.simulator.scenarios.ediamond import ediamond_scenario

SCHEDULE = ReconstructionSchedule.from_training_size(1200, k=10, t_data=20.0)
SPEEDUP = 0.9


@pytest.fixture(scope="module")
def fig7_result():
    env = ediamond_scenario()
    train = env.simulate(SCHEDULE.n_points, rng=71_001)
    model = build_discrete_kertbn(env.workflow, train, n_bins=5)
    pa = PAccel(model)

    accelerated = ediamond_scenario(service_speedups={"X4": SPEEDUP})
    observed = accelerated.simulate(1200, rng=71_002)
    new_x4_mean = float(np.mean(observed["X4"]))

    projected = pa.project({"X4": new_x4_mean})
    baseline = pa.baseline()
    return projected, baseline, observed, pa


def test_fig7_projection_tracks_observation(fig7_result, benchmark):
    projected, baseline, observed, pa = fig7_result
    observed_d = np.asarray(observed["D"])

    rows = []
    centers = 0.5 * (projected.edges[:-1] + projected.edges[1:])
    emp, _ = np.histogram(observed_d, bins=projected.edges)
    emp_total = max(emp.sum(), 1)
    for c, p, e in zip(centers, projected.pmf, emp / emp_total):
        rows.append(
            {"D_bin_center": float(c), "projected": float(p), "observed": float(e)}
        )
    rows.append(
        {
            "D_bin_center": "mean",
            "projected": projected.mean,
            "observed": float(observed_d.mean()),
        }
    )
    rows.append(
        {
            "D_bin_center": "baseline_mean",
            "projected": baseline.mean,
            "observed": "",
        }
    )
    emit_series(
        "fig7",
        f"pAccel projection vs observation after X4 -> {SPEEDUP:.0%}",
        rows,
        timing=(),
    )

    # The projection approximates the observed post-acceleration mean...
    assert projected.mean == pytest.approx(float(observed_d.mean()), rel=0.10)
    # ...and correctly predicts an improvement over the baseline.
    assert projected.mean <= baseline.mean + 1e-9

    new_x4_mean = float(np.mean(observed["X4"]))
    benchmark.pedantic(
        pa.project, args=({"X4": new_x4_mean},), rounds=5, iterations=1
    )
