"""Figure 3 — KERT-BN vs NRT-BN across training-set sizes.

Paper setup (Section 4.2): 30 simulated services; continuous models;
training sets from 36 points (K·α = 3·12, T_CON = 2 min) to 1080 points
(3·360, T_CON = 60 min); accuracy = log10 p(TestData | BN) against a
100-point test set; each point averaged over repetitions.

Expected shape: both construction times grow ~linearly with training
size with KERT-BN strictly below and the gap widening; KERT-BN accuracy
at least matches NRT-BN everywhere and is already near its plateau at 36
points while NRT-BN needs hundreds of points to stabilize.
"""

import numpy as np
import pytest

from _util import emit_series

from repro.core.kertbn import build_continuous_kertbn
from repro.core.nrtbn import build_continuous_nrtbn
from repro.simulator.scenarios.random_env import random_environment

N_SERVICES = 30
TRAINING_SIZES = (36, 108, 216, 432, 648, 1080)
N_TEST = 100
N_REPS = 3


@pytest.fixture(scope="module")
def fig3_rows():
    # Unrecorded warm-up build of both models, so the first row does not
    # pay the first-call cost and the time columns grow with N alone.
    env = random_environment(N_SERVICES, rng=30_000)
    train, _ = env.train_test(TRAINING_SIZES[0], N_TEST, rng=30_001)
    build_continuous_kertbn(env.workflow, train)
    build_continuous_nrtbn(train, rng=30_002)

    rows = []
    for n_train in TRAINING_SIZES:
        acc = {"kert_build_s": [], "nrt_build_s": [],
               "kert_log10": [], "nrt_log10": []}
        for rep in range(N_REPS):
            seed = 31_000 + 17 * n_train + rep
            env = random_environment(N_SERVICES, rng=seed)
            train, test = env.train_test(n_train, N_TEST, rng=seed + 1)
            kert = build_continuous_kertbn(env.workflow, train)
            nrt = build_continuous_nrtbn(train, rng=seed + 2)
            acc["kert_build_s"].append(kert.report.construction_seconds)
            acc["nrt_build_s"].append(nrt.report.construction_seconds)
            acc["kert_log10"].append(kert.log10_likelihood(test))
            acc["nrt_log10"].append(nrt.log10_likelihood(test))
        rows.append(
            {
                "n_train": n_train,
                **{k: float(np.mean(v)) for k, v in acc.items()},
                "speedup": float(np.mean(acc["nrt_build_s"]))
                / float(np.mean(acc["kert_build_s"])),
            }
        )
    emit_series(
        "fig3",
        f"construction time & accuracy vs training size "
        f"({N_SERVICES} services, {N_REPS} reps)",
        rows,
        timing=("kert_build_s", "nrt_build_s", "speedup"),
    )
    return rows


def test_fig3_construction_time_shape(fig3_rows, benchmark):
    # KERT-BN below NRT-BN at every size; gap (absolute) widens with N.
    for r in fig3_rows:
        assert r["kert_build_s"] < r["nrt_build_s"]
    gaps = [r["nrt_build_s"] - r["kert_build_s"] for r in fig3_rows]
    assert gaps[-1] > gaps[0]

    # Representative timed unit: one KERT-BN build at the largest size.
    env = random_environment(N_SERVICES, rng=99)
    train, _ = env.train_test(TRAINING_SIZES[-1], N_TEST, rng=100)
    benchmark.pedantic(
        build_continuous_kertbn, args=(env.workflow, train), rounds=3, iterations=1
    )


def test_fig3_accuracy_shape(fig3_rows, benchmark):
    # KERT-BN accuracy >= NRT-BN accuracy at every training size.
    for r in fig3_rows:
        assert r["kert_log10"] >= r["nrt_log10"] - 1e-6
    # NRT-BN improves substantially from 36 to 1080 points; KERT-BN's
    # small-data accuracy is already close to its large-data accuracy
    # relative to NRT's movement (fast convergence).
    kert_gain = fig3_rows[-1]["kert_log10"] - fig3_rows[0]["kert_log10"]
    nrt_gain = fig3_rows[-1]["nrt_log10"] - fig3_rows[0]["nrt_log10"]
    assert nrt_gain > kert_gain

    env = random_environment(N_SERVICES, rng=101)
    train, test = env.train_test(36, N_TEST, rng=102)
    model = build_continuous_kertbn(env.workflow, train)
    benchmark.pedantic(model.log10_likelihood, args=(test,), rounds=3, iterations=1)
