"""Figure 5 — decentralized vs centralized parameter-learning time.

Paper setup (Section 4.3): for each environment size, the parameters of
randomly generated KERT-BNs are learned; since the per-CPD computations
run concurrently on monitoring agents, the decentralized learning time is
the **maximum** of the per-CPD times, compared against the centralized
**sum**.

Expected shape: decentralized constantly below centralized, the gap
growing with the number of services (thus CPDs).
"""

import numpy as np
import pytest

from _util import emit_series

from repro.decentralized.agent import linear_gaussian_fitter
from repro.decentralized.coordinator import Coordinator
from repro.simulator.scenarios.random_env import random_environment

ENV_SIZES = (10, 25, 50, 75, 100)
N_TRAIN = 200
N_NETS_PER_SIZE = 5


@pytest.fixture(scope="module")
def fig5_rows():
    rows = []
    for n in ENV_SIZES:
        dec, cen, msgs = [], [], []
        for rep in range(N_NETS_PER_SIZE):
            seed = 51_000 + 7 * n + rep
            env = random_environment(n, rng=seed)
            data = env.simulate(N_TRAIN, rng=seed + 1)
            dag = env.knowledge_structure()
            service_dag = dag.subgraph([m for m in dag.nodes if m != "D"])
            coord = Coordinator(service_dag, linear_gaussian_fitter())
            result = coord.learn_round(data)
            dec.append(result.decentralized_seconds)
            cen.append(result.centralized_seconds)
            msgs.append(result.network_summary["n_messages"])
        rows.append(
            {
                "n_services": n,
                "decentralized_s": float(np.mean(dec)),
                "centralized_s": float(np.mean(cen)),
                "ratio": float(np.mean(cen)) / float(np.mean(dec)),
                "n_messages": float(np.mean(msgs)),
            }
        )
    emit_series(
        "fig5",
        f"decentralized (max per-CPD) vs centralized (sum) learning time "
        f"({N_NETS_PER_SIZE} random KERT-BNs per size, N={N_TRAIN})",
        rows,
        timing=("decentralized_s", "centralized_s", "ratio"),
    )
    return rows


def test_fig5_decentralized_beats_centralized(fig5_rows, benchmark):
    for r in fig5_rows:
        assert r["decentralized_s"] < r["centralized_s"]
    # The advantage grows with environment size.
    assert fig5_rows[-1]["ratio"] > fig5_rows[0]["ratio"]

    env = random_environment(ENV_SIZES[-1], rng=905)
    data = env.simulate(N_TRAIN, rng=906)
    dag = env.knowledge_structure()
    service_dag = dag.subgraph([m for m in dag.nodes if m != "D"])

    def one_round():
        return Coordinator(service_dag, linear_gaussian_fitter()).learn_round(data)

    benchmark.pedantic(one_round, rounds=3, iterations=1)
