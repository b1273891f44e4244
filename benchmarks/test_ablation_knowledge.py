"""Ablation — how much does each knowledge injection buy?

DESIGN.md calls out two distinct uses of domain knowledge in KERT-BN:
the *structure* (Sec 3.2) and the *response CPD* ``f`` (Sec 3.3, Eq. 4).
This ablation builds the ladder

  NRT-BN  →  structure-only KERT-BN  →  full KERT-BN

on identical data and reports construction time and test accuracy for
each rung, separating the two contributions the paper evaluates jointly.
"""

import numpy as np
import pytest

from _util import emit_series

from repro.core.kertbn import build_continuous_kertbn, build_structure_only_kertbn
from repro.core.nrtbn import build_continuous_nrtbn, build_naive_continuous
from repro.simulator.scenarios.random_env import random_environment

N_SERVICES = 30
N_TRAIN = 120
N_TEST = 150
N_REPS = 3


@pytest.fixture(scope="module")
def ablation_rows():
    builders = {
        "naive (no knowledge, no search)": lambda env, tr: build_naive_continuous(tr),
        "nrt-bn (K2 search)": lambda env, tr: build_continuous_nrtbn(tr, rng=1),
        "kert structure-only": lambda env, tr: build_structure_only_kertbn(
            env.workflow, tr
        ),
        "kert full (structure + f)": lambda env, tr: build_continuous_kertbn(
            env.workflow, tr
        ),
    }
    acc = {name: {"build": [], "log10": []} for name in builders}
    for rep in range(N_REPS):
        env = random_environment(N_SERVICES, rng=90_000 + rep)
        train, test = env.train_test(N_TRAIN, N_TEST, rng=90_100 + rep)
        for name, build in builders.items():
            model = build(env, train)
            acc[name]["build"].append(model.report.construction_seconds)
            acc[name]["log10"].append(model.log10_likelihood(test))
    rows = [
        {
            "variant": name,
            "build_s": float(np.mean(v["build"])),
            "test_log10": float(np.mean(v["log10"])),
        }
        for name, v in acc.items()
    ]
    emit_series(
        "ablation_knowledge",
        f"knowledge ladder ({N_SERVICES} services, N={N_TRAIN}, {N_REPS} reps)",
        rows,
        timing=("build_s",),
    )
    return {r["variant"]: r for r in rows}


def test_knowledge_ladder_monotone(ablation_rows, benchmark):
    naive = ablation_rows["naive (no knowledge, no search)"]
    nrt = ablation_rows["nrt-bn (K2 search)"]
    struct = ablation_rows["kert structure-only"]
    full = ablation_rows["kert full (structure + f)"]

    # Accuracy climbs the ladder.
    assert nrt["test_log10"] > naive["test_log10"]
    assert struct["test_log10"] >= nrt["test_log10"] - 1e-6
    assert full["test_log10"] >= struct["test_log10"] - 1e-6
    # Knowledge-given structure removes the expensive search.
    assert struct["build_s"] < nrt["build_s"]
    assert full["build_s"] < nrt["build_s"]

    env = random_environment(N_SERVICES, rng=90_900)
    train, _ = env.train_test(N_TRAIN, N_TEST, rng=90_901)
    benchmark.pedantic(
        build_structure_only_kertbn, args=(env.workflow, train),
        rounds=3, iterations=1,
    )
