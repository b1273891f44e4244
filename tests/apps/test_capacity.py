"""Branch dominance and acceleration headroom."""

import numpy as np
import pytest

from repro.apps.capacity import acceleration_headroom, branch_dominance
from repro.exceptions import InferenceError


def test_remote_branch_dominates_ediamond(ediamond_continuous_model):
    results = branch_dominance(ediamond_continuous_model, rng=0)
    assert len(results) == 1  # one parallel join in the scenario
    join = results[0]
    assert set(join.operands) == {"X3 + X5", "X4 + X6"}
    remote = join.operands.index("X4 + X6")
    # The WAN-delayed remote branch wins most of the time.
    assert join.probabilities[remote] > 0.6
    assert sum(join.probabilities) == pytest.approx(1.0)
    assert int(np.argmax(join.probabilities)) == remote


def test_headroom_ranks_services_sensibly(ediamond_continuous_model):
    headroom = acceleration_headroom(ediamond_continuous_model, rng=1)
    assert set(headroom) == {"X1", "X2", "X3", "X4", "X5", "X6"}
    # Sequential services: zeroing them saves ~their full mean.
    assert headroom["X1"] > 0
    # Dominant-branch services have more headroom than shadowed ones.
    assert headroom["X6"] > headroom["X5"]
    assert headroom["X4"] > headroom["X3"]
    # Shadowed-branch headroom can approach zero but never below.
    assert all(h >= -1e-9 for h in headroom.values())


def test_requires_parallel_join(rng):
    from repro.core.kertbn import build_continuous_kertbn
    from repro.simulator.delays import LogNormal
    from repro.simulator.environment import SimulatedEnvironment
    from repro.simulator.service import ServiceSpec
    from repro.workflow.constructs import sequence_of

    wf = sequence_of("s1", "s2")
    env = SimulatedEnvironment(
        workflow=wf,
        services=(
            ServiceSpec("s1", LogNormal(0.1, 0.3)),
            ServiceSpec("s2", LogNormal(0.1, 0.3)),
        ),
    )
    model = build_continuous_kertbn(wf, env.simulate(200, rng=2))
    with pytest.raises(InferenceError):
        branch_dominance(model)
    # Headroom still works without joins.
    hr = acceleration_headroom(model, rng=3)
    assert hr["s1"] > 0


def test_requires_hybrid_model(ediamond_data):
    from repro.core.nrtbn import build_continuous_nrtbn

    train, _ = ediamond_data
    with pytest.raises(InferenceError):
        branch_dominance(build_continuous_nrtbn(train, rng=4))
