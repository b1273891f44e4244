"""Figure 4 — KERT-BN vs NRT-BN across environment sizes.

Paper setup (Section 4.2): 10–100 simulated services; training sets of
36 points (α = 12, T_CON = 2 min — the fast-reconstruction regime);
repeated runs averaged.

Expected shape: NRT-BN construction time grows *super-linearly* with the
number of services (its K2 search evaluates O((n+1)²) candidate sets)
while KERT-BN's stays nearly flat; NRT-BN becomes infeasible at
T_CON = 2 min beyond some size while KERT-BN never does; KERT-BN keeps
the accuracy lead at every size.
"""

import numpy as np
import pytest

from _util import emit_series

from repro.core.kertbn import build_continuous_kertbn
from repro.core.nrtbn import build_continuous_nrtbn
from repro.core.reconstruction import ReconstructionSchedule
from repro.simulator.scenarios.random_env import random_environment

import os

# The paper extrapolates NRT-BN's blow-up to 200/300/500 services (over
# 2 h / 10 h / 2 days on 2007 hardware).  Opt in to the larger sweep with
# REPRO_FIG4_LARGE=1; the default keeps CI fast.
ENV_SIZES = (10, 20, 40, 60, 80, 100)
if os.environ.get("REPRO_FIG4_LARGE") == "1":
    ENV_SIZES = ENV_SIZES + (150, 200)
N_TRAIN = 36
N_TEST = 100
N_REPS = 3
SCHEDULE = ReconstructionSchedule(t_data=10.0, alpha_model=12, k=3)  # T_CON = 2 min


@pytest.fixture(scope="module")
def fig4_rows():
    rows = []
    for n in ENV_SIZES:
        acc = {"kert_build_s": [], "nrt_build_s": [],
               "kert_log10": [], "nrt_log10": [], "k2_evals": []}
        for rep in range(N_REPS):
            seed = 41_000 + 13 * n + rep
            env = random_environment(n, rng=seed)
            train, test = env.train_test(N_TRAIN, N_TEST, rng=seed + 1)
            kert = build_continuous_kertbn(env.workflow, train)
            nrt = build_continuous_nrtbn(train, rng=seed + 2)
            acc["kert_build_s"].append(kert.report.construction_seconds)
            acc["nrt_build_s"].append(nrt.report.construction_seconds)
            acc["kert_log10"].append(kert.log10_likelihood(test))
            acc["nrt_log10"].append(nrt.log10_likelihood(test))
            acc["k2_evals"].append(nrt.report.extra["k2_evaluations"])
        rows.append(
            {
                "n_services": n,
                "kert_build_s": float(np.mean(acc["kert_build_s"])),
                "nrt_build_s": float(np.mean(acc["nrt_build_s"])),
                "kert_log10": float(np.mean(acc["kert_log10"])),
                "nrt_log10": float(np.mean(acc["nrt_log10"])),
                "k2_evals": float(np.mean(acc["k2_evals"])),
                "kert_feasible@2min": float(np.mean(acc["kert_build_s"]))
                <= SCHEDULE.t_con,
                "nrt_feasible@2min": float(np.mean(acc["nrt_build_s"]))
                <= SCHEDULE.t_con,
            }
        )
    emit_series(
        "fig4",
        f"construction time & accuracy vs environment size "
        f"(N={N_TRAIN} training points, {N_REPS} reps)",
        rows,
        timing=("kert_build_s", "nrt_build_s"),
    )
    return rows


def test_fig4_construction_time_shape(fig4_rows, benchmark):
    small, large = fig4_rows[0], fig4_rows[-1]
    n_ratio = large["n_services"] / small["n_services"]
    # NRT-BN super-linear: time ratio beats the size ratio.
    assert large["nrt_build_s"] / small["nrt_build_s"] > n_ratio
    # K2's candidate evaluations grow super-linearly too (O(n^2) signature).
    assert large["k2_evals"] / small["k2_evals"] > n_ratio
    # KERT-BN ~flat: grows far slower than NRT-BN.
    kert_growth = large["kert_build_s"] / small["kert_build_s"]
    nrt_growth = large["nrt_build_s"] / small["nrt_build_s"]
    assert kert_growth < nrt_growth / 2
    # KERT-BN always feasible at T_CON = 2 min.
    assert all(r["kert_feasible@2min"] for r in fig4_rows)

    env = random_environment(ENV_SIZES[-1], rng=900)
    train, _ = env.train_test(N_TRAIN, N_TEST, rng=901)
    benchmark.pedantic(
        build_continuous_kertbn, args=(env.workflow, train), rounds=3, iterations=1
    )


def test_fig4_accuracy_shape(fig4_rows, benchmark):
    for r in fig4_rows:
        assert r["kert_log10"] >= r["nrt_log10"] - 1e-6

    env = random_environment(ENV_SIZES[-1], rng=902)
    train, _ = env.train_test(N_TRAIN, N_TEST, rng=903)
    benchmark.pedantic(
        build_continuous_nrtbn, args=(train,), kwargs={"rng": 904},
        rounds=2, iterations=1,
    )
