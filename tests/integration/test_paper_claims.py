"""Integration tests asserting the paper's headline claims hold.

These are the qualitative *shapes* of the evaluation figures, run at
test-scale (the full sweeps live in ``benchmarks/``).
"""

import numpy as np
import pytest

from repro.core.kertbn import build_continuous_kertbn
from repro.core.nrtbn import build_continuous_nrtbn
from repro.simulator.scenarios.random_env import random_environment


@pytest.fixture(scope="module")
def comparison_30():
    """One Fig-3-style point: 30 services, 300 training rows."""
    env = random_environment(30, rng=1001)
    train, test = env.train_test(300, 150, rng=1002)
    kert = build_continuous_kertbn(env.workflow, train)
    nrt = build_continuous_nrtbn(train, rng=1003)
    return env, train, test, kert, nrt


def test_claim_kertbn_builds_faster(comparison_30):
    """Fig. 3/4 (left): KERT-BN construction time below NRT-BN."""
    _, _, _, kert, nrt = comparison_30
    assert (
        kert.report.construction_seconds < nrt.report.construction_seconds
    )
    # And the win comes from skipping structure learning.
    assert kert.report.structure_seconds < nrt.report.structure_seconds


def test_claim_kertbn_at_least_as_accurate(comparison_30):
    """Fig. 3/4 (right): KERT-BN accuracy >= NRT-BN accuracy."""
    _, _, test, kert, nrt = comparison_30
    assert kert.log10_likelihood(test) >= nrt.log10_likelihood(test)


def test_claim_kertbn_tolerates_tiny_training_sets():
    """Fig. 3 (right): with 36 points KERT-BN is already close to its
    large-data accuracy, while NRT-BN is far from its own."""
    env = random_environment(30, rng=2001)
    test = env.simulate(150, rng=2003)
    small = env.simulate(36, rng=2004)
    large = env.simulate(1080, rng=2005)

    kert_small = build_continuous_kertbn(env.workflow, small).log10_likelihood(test)
    kert_large = build_continuous_kertbn(env.workflow, large).log10_likelihood(test)
    nrt_small = build_continuous_nrtbn(small, rng=1).log10_likelihood(test)
    nrt_large = build_continuous_nrtbn(large, rng=2).log10_likelihood(test)

    kert_gap = kert_large - kert_small
    nrt_gap = nrt_large - nrt_small
    assert kert_gap < nrt_gap  # KERT converges faster
    assert kert_small > nrt_small  # and dominates in the small-data regime


def test_claim_nrtbn_construction_superlinear_kert_flat():
    """Fig. 4 (left): NRT-BN time grows superlinearly with service count;
    KERT-BN time stays nearly flat."""
    sizes = (10, 40)
    kert_times, nrt_times = [], []
    for i, n in enumerate(sizes):
        env = random_environment(n, rng=3000 + i)
        train = env.simulate(36, rng=3100 + i)
        kert_times.append(
            build_continuous_kertbn(env.workflow, train).report.construction_seconds
        )
        nrt_times.append(
            build_continuous_nrtbn(train, rng=3200 + i).report.construction_seconds
        )
    n_ratio = sizes[1] / sizes[0]
    assert nrt_times[1] / nrt_times[0] > n_ratio  # superlinear
    assert kert_times[1] < nrt_times[1] / 5  # KERT far cheaper at 40 services


def test_claim_decentralized_learning_faster(comparison_30):
    """Fig. 5: max-per-agent (decentralized) < sum (centralized), from the
    round whose agents each fit one service CPD."""
    from repro.decentralized.agent import linear_gaussian_fitter
    from repro.decentralized.coordinator import Coordinator

    env, train, _, _, _ = comparison_30
    dag = env.knowledge_structure()
    service_dag = dag.subgraph([n for n in dag.nodes if n != "D"])
    result = Coordinator(service_dag, linear_gaussian_fitter()).learn_round(train)
    assert result.decentralized_seconds < result.centralized_seconds
    # With 30 agents there must be a real gap even at sub-millisecond fit
    # times (the full-scale sweep is benchmarks/test_fig5_decentralized.py,
    # where the ratio grows with environment size).
    assert result.centralized_seconds / max(
        result.decentralized_seconds, 1e-9
    ) > 1.5


def test_claim_violation_error_kert_beats_nrt():
    """Fig. 8's shape at test scale: ε(KERT) <= ε(NRT) on average."""
    from repro.apps.paccel import PAccel
    from repro.apps.violation import default_thresholds, violation_curve
    from repro.core.kertbn import build_discrete_kertbn
    from repro.core.nrtbn import build_discrete_nrtbn
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    kert_all, nrt_all = [], []
    for seed in range(3):
        env = ediamond_scenario()
        train = env.simulate(1200, rng=4001 + seed)
        kert = build_discrete_kertbn(env.workflow, train, n_bins=5)
        nrt = build_discrete_nrtbn(train, rng=4100 + seed, n_restarts=5,
                                   max_parents=3)

        # Physically accelerate only X4 to ~90 % (the Sec-5.2 action),
        # observe reality, ask both models.
        faster = ediamond_scenario(service_speedups={"X4": 0.9})
        observed = faster.simulate(1200, rng=4200 + seed)
        new_x4 = float(np.mean(observed["X4"]))
        real_d = np.asarray(observed["D"])
        thresholds = default_thresholds(real_d)

        def project(model):
            pa = PAccel(model)
            res = pa.project({"X4": new_x4})
            return res.violation_probability

        kert_rows = violation_curve(project(kert), real_d, thresholds)
        nrt_rows = violation_curve(project(nrt), real_d, thresholds)
        kert_all.append(np.mean([r["epsilon"] for r in kert_rows]))
        nrt_all.append(np.mean([r["epsilon"] for r in nrt_rows]))
    # Average over seeds: KERT's ε at or below NRT's (small tolerance for
    # run-to-run noise on an inherently statistical comparison).
    assert np.mean(kert_all) <= np.mean(nrt_all) + 0.02
