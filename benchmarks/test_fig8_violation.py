"""Figure 8 — relative threshold-violation error, KERT-BN vs NRT-BN.

Paper setup (Section 5.3): discrete models trained on 1200 points
(K·α = 10·120); the NRT-BN is *optimized* by re-running K2 with random
orderings until the next construction is due; both models project the
response-time distribution after accelerating X4 and are scored with
Eq. 5's ε = |P_bn(D>h) − P_real(D>h)| / P_real(D>h) at six thresholds.

Expected shape: despite the random-restart optimization, NRT-BN's mean ε
stays at or above KERT-BN's.
"""

import numpy as np
import pytest

from _util import emit_series

from repro.apps.paccel import PAccel
from repro.apps.violation import default_thresholds, violation_curve
from repro.core.kertbn import build_discrete_kertbn
from repro.core.nrtbn import build_discrete_nrtbn
from repro.core.reconstruction import ReconstructionSchedule
from repro.simulator.scenarios.ediamond import ediamond_scenario

SCHEDULE = ReconstructionSchedule.from_training_size(1200, k=10, t_data=20.0)
SPEEDUP = 0.9
N_SEEDS = 3
N_RESTARTS = 8  # the paper's "repeatedly run K2 ... until the next
# model construction is due"; a fixed restart budget keeps runtime bounded.


@pytest.fixture(scope="module")
def fig8_rows():
    per_threshold: dict[int, dict[str, list[float]]] = {}
    means = {"kert": [], "nrt": []}
    for seed in range(N_SEEDS):
        env = ediamond_scenario()
        train = env.simulate(SCHEDULE.n_points, rng=81_000 + seed)
        kert = build_discrete_kertbn(env.workflow, train, n_bins=5)
        nrt = build_discrete_nrtbn(
            train, rng=81_100 + seed, n_restarts=N_RESTARTS, max_parents=3
        )

        accelerated = ediamond_scenario(service_speedups={"X4": SPEEDUP})
        observed = accelerated.simulate(1200, rng=81_200 + seed)
        new_x4 = float(np.mean(observed["X4"]))
        real_d = np.asarray(observed["D"])
        thresholds = default_thresholds(real_d)

        kert_curve = violation_curve(
            PAccel(kert).project({"X4": new_x4}).violation_probability,
            real_d, thresholds,
        )
        nrt_curve = violation_curve(
            PAccel(nrt).project({"X4": new_x4}).violation_probability,
            real_d, thresholds,
        )
        for i, (kr, nr) in enumerate(zip(kert_curve, nrt_curve)):
            slot = per_threshold.setdefault(i, {"kert": [], "nrt": [], "h": []})
            slot["kert"].append(kr["epsilon"])
            slot["nrt"].append(nr["epsilon"])
            slot["h"].append(kr["threshold"])
        means["kert"].append(np.mean([r["epsilon"] for r in kert_curve]))
        means["nrt"].append(np.mean([r["epsilon"] for r in nrt_curve]))

    rows = [
        {
            "threshold": float(np.mean(slot["h"])),
            "kert_epsilon": float(np.mean(slot["kert"])),
            "nrt_epsilon": float(np.mean(slot["nrt"])),
        }
        for slot in per_threshold.values()
    ]
    rows.append(
        {
            "threshold": "mean",
            "kert_epsilon": float(np.mean(means["kert"])),
            "nrt_epsilon": float(np.mean(means["nrt"])),
        }
    )
    emit_series(
        "fig8",
        f"relative threshold-violation error after X4 -> {SPEEDUP:.0%} "
        f"({N_SEEDS} seeds, NRT-BN with {N_RESTARTS} K2 restarts)",
        rows,
        timing=(),
    )
    return rows


def test_fig8_kert_at_or_below_nrt(fig8_rows, benchmark):
    summary = fig8_rows[-1]
    assert summary["kert_epsilon"] <= summary["nrt_epsilon"] + 0.02

    # Timed unit: one full KERT-BN projection + ε computation.
    env = ediamond_scenario()
    train = env.simulate(SCHEDULE.n_points, rng=81_900)
    kert = build_discrete_kertbn(env.workflow, train, n_bins=5)
    observed = ediamond_scenario(service_speedups={"X4": SPEEDUP}).simulate(
        600, rng=81_901
    )
    new_x4 = float(np.mean(observed["X4"]))
    real_d = np.asarray(observed["D"])
    thresholds = default_thresholds(real_d)

    def run():
        return violation_curve(
            PAccel(kert).project({"X4": new_x4}).violation_probability,
            real_d, thresholds,
        )

    benchmark.pedantic(run, rounds=5, iterations=1)
