"""Ablation — how the Eq.-4 leak mass is spread.

The paper's Eq. 4 spreads the leak ``l`` uniformly over the non-predicted
states.  Binned measurements rarely miss uniformly — noise lands next
door — so this library also offers a distance-decayed spread and a
one-pass calibrated confusion matrix (see
:func:`repro.core.kertbn.calibrate_confusion`).  The ablation measures
what each refinement buys in test likelihood at identical build cost
class (all are O(N) in training size, constant in parent count).
"""

import numpy as np
import pytest

from _util import emit_series

from repro.core.kertbn import build_discrete_kertbn
from repro.simulator.scenarios.ediamond import ediamond_scenario

N_TRAIN = 1200
N_TEST = 600
N_REPS = 3
MODELS = ("uniform", "geometric", "confusion")


@pytest.fixture(scope="module")
def leak_rows():
    acc = {m: {"log10": [], "build": []} for m in MODELS}
    for rep in range(N_REPS):
        env = ediamond_scenario()
        train, test = env.train_test(N_TRAIN, N_TEST, rng=91_000 + rep)
        for m in MODELS:
            model = build_discrete_kertbn(
                env.workflow, train, n_bins=5, leak_model=m
            )
            acc[m]["log10"].append(model.log10_likelihood(test))
            acc[m]["build"].append(model.report.construction_seconds)
    rows = [
        {
            "leak_model": m,
            "test_log10": float(np.mean(acc[m]["log10"])),
            "build_s": float(np.mean(acc[m]["build"])),
        }
        for m in MODELS
    ]
    emit_series(
        "ablation_leak_model",
        f"Eq.-4 leak-spread variants (eDiaMoND, N={N_TRAIN}, {N_REPS} reps)",
        rows,
        timing=("build_s",),
    )
    return {r["leak_model"]: r for r in rows}


def test_leak_refinements_pay_off(leak_rows, benchmark):
    assert leak_rows["geometric"]["test_log10"] >= leak_rows["uniform"]["test_log10"]
    assert leak_rows["confusion"]["test_log10"] >= leak_rows["geometric"]["test_log10"]
    # All stay within the same (cheap) build-cost class.
    costs = [leak_rows[m]["build_s"] for m in MODELS]
    assert max(costs) < 10 * min(costs)

    env = ediamond_scenario()
    train, _ = env.train_test(N_TRAIN, N_TEST, rng=91_900)
    benchmark.pedantic(
        build_discrete_kertbn,
        args=(env.workflow, train),
        kwargs={"n_bins": 5, "leak_model": "confusion"},
        rounds=3,
        iterations=1,
    )
