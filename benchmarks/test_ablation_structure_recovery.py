"""Ablation — can data learning recover the knowledge structure?

KERT-BN's structure comes for free from the workflow; NRT-BN must learn
it.  This ablation measures how close K2 gets to the workflow-derived
reference as training data grows (skeleton F1 and structural Hamming
distance), quantifying what "knowledge for free" is worth in data terms.
"""

import numpy as np
import pytest

from _util import emit_series

from repro.bn.structure_metrics import knowledge_recovery
from repro.core.nrtbn import build_continuous_nrtbn
from repro.simulator.scenarios.random_env import random_environment

N_SERVICES = 15
TRAIN_SIZES = (36, 120, 400, 1200)
N_REPS = 3


@pytest.fixture(scope="module")
def recovery_rows():
    rows = []
    for n_train in TRAIN_SIZES:
        f1s, shds, recalls = [], [], []
        for rep in range(N_REPS):
            seed = 95_000 + 11 * n_train + rep
            env = random_environment(N_SERVICES, rng=seed)
            train = env.simulate(n_train, rng=seed + 1)
            nrt = build_continuous_nrtbn(train, rng=seed + 2)
            cmp = knowledge_recovery(nrt.network.dag, env.workflow)
            f1s.append(cmp.skeleton_f1)
            shds.append(cmp.shd)
            recalls.append(cmp.skeleton_recall)
        rows.append(
            {
                "n_train": n_train,
                "skeleton_f1": float(np.mean(f1s)),
                "skeleton_recall": float(np.mean(recalls)),
                "shd": float(np.mean(shds)),
            }
        )
    emit_series(
        "ablation_structure_recovery",
        f"K2 recovery of the workflow structure ({N_SERVICES} services, "
        f"{N_REPS} reps)",
        rows,
        timing=(),
    )
    return rows


def test_structure_recovery_improves_but_stays_imperfect(recovery_rows, benchmark):
    recall = [r["skeleton_recall"] for r in recovery_rows]
    # More data finds more of the true workflow edges...
    assert recall[-1] > recall[0]
    # ...but even 1200 points leave a clear gap to the free knowledge
    # structure: K2 also picks up indirect-correlation edges the paper's
    # "simplest DAG" reference deliberately omits, so precision (and SHD)
    # do NOT converge to the knowledge structure — measured here, and the
    # reason interpretability is listed among KERT-BN's advantages.
    assert all(r["skeleton_f1"] < 0.95 for r in recovery_rows)
    assert recovery_rows[-1]["shd"] > 0

    env = random_environment(N_SERVICES, rng=95_900)
    train = env.simulate(400, rng=95_901)

    def recover():
        nrt = build_continuous_nrtbn(train, rng=95_902)
        return knowledge_recovery(nrt.network.dag, env.workflow)

    benchmark.pedantic(recover, rounds=3, iterations=1)
