"""RapidAssessor: analytic moment propagation vs Monte Carlo."""

import importlib.util
import os
import time

import numpy as np
import pytest

from repro.apps.assessment import RapidAssessor, _MomentPlan
from repro.apps.paccel import PAccel
from repro.exceptions import InferenceError
from repro.workflow.expressions import Max, Var


def test_requires_hybrid_model(ediamond_data):
    from repro.core.nrtbn import build_continuous_nrtbn

    train, _ = ediamond_data
    nrt = build_continuous_nrtbn(train, rng=0)
    with pytest.raises(InferenceError):
        RapidAssessor(nrt)


def clark_max(names, mean, cov):
    """Mean and variance of the plan's one Clark step ``max(Z_0, Z_1)``."""
    plan = _MomentPlan(Max([Var(names[0]), Var(names[1])]), names)
    means, covs = plan.run(mean[None], cov[None])
    return means[0, plan.root], covs[0, plan.root, plan.root]


def test_clark_max_independent_standard_normals():
    # E[max(Z1, Z2)] = 1/sqrt(pi) for iid N(0,1); Var = 1 - 1/pi.
    mean, var = clark_max(["z1", "z2"], np.zeros(2), np.eye(2))
    assert mean == pytest.approx(1 / np.sqrt(np.pi), abs=1e-9)
    assert var == pytest.approx(1 - 1 / np.pi, abs=1e-9)


def test_clark_max_degenerate_identical_terms():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    mean, var = clark_max(["z1", "z2"], np.array([3.0, 3.0]), cov)
    assert mean == pytest.approx(3.0)
    assert var == pytest.approx(1.0)


def test_clark_max_dominant_branch():
    mean, var = clark_max(["lo", "hi"], np.array([0.0, 100.0]), np.diag([1.0, 2.0]))
    assert mean == pytest.approx(100.0, abs=1e-6)
    assert var == pytest.approx(2.0, abs=1e-6)


def test_assess_matches_monte_carlo(ediamond_continuous_model):
    ra = RapidAssessor(ediamond_continuous_model)
    m, v = ra.assess()
    mc = PAccel(ediamond_continuous_model).baseline(n_samples=150_000, rng=1)
    assert m == pytest.approx(mc.mean, rel=0.02)
    assert np.sqrt(v) == pytest.approx(mc.std, rel=0.05)


def test_assess_with_evidence_matches_monte_carlo(
    ediamond_continuous_model, ediamond_data
):
    train, _ = ediamond_data
    ra = RapidAssessor(ediamond_continuous_model)
    x4 = float(np.mean(train["X4"]))
    m, _ = ra.assess({"X4": 0.9 * x4})
    proj = PAccel(ediamond_continuous_model).project(
        {"X4": 0.9 * x4}, n_samples=150_000, rng=2
    )
    assert m == pytest.approx(proj.mean, rel=0.02)


def test_violation_probability_reasonable(ediamond_continuous_model):
    ra = RapidAssessor(ediamond_continuous_model)
    mc = PAccel(ediamond_continuous_model).baseline(n_samples=150_000, rng=3)
    m, v = ra.assess()
    for h in (m - 0.5, m, m + 0.5):
        analytic = ra.violation_probability(h)
        empirical = mc.violation_probability(h)
        assert analytic == pytest.approx(empirical, abs=0.06)
    # Monotone in the threshold.
    probs = [ra.violation_probability(h) for h in np.linspace(0.5, 4.0, 8)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def _host_reference():
    """The benchmark's host-speed reference job (``perfbench/reference.py``)."""
    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "perfbench", "reference.py"
    )
    spec = importlib.util.spec_from_file_location("_perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_assessment_is_fast(ediamond_continuous_model):
    """Control-loop friendly: 50 ms per call on the benchmark's nominal
    host, scaled by the reference job timed five times on each side of
    the measurement so that a loaded host raises the bound."""
    ra = RapidAssessor(ediamond_continuous_model)
    reference = _host_reference()
    around = [reference.job_seconds() for _ in range(5)]
    t0 = time.perf_counter()
    for _ in range(50):
        ra.assess()
    per_call = (time.perf_counter() - t0) / 50
    around += [reference.job_seconds() for _ in range(5)]
    bound = 0.05 * float(np.median(around)) / reference.NOMINAL_JOB_S
    assert per_call < bound, f"assess {per_call * 1e3:.2f} ms >= {bound * 1e3:.2f} ms"


def test_assessment_sweeps_once(ediamond_continuous_model, monkeypatch):
    """The counted twin of the timed bound above: 50 evidence-free
    ``assess`` calls on one assessor run the moment plan once."""
    from repro.apps import assessment

    runs = []
    real = assessment._MomentPlan.run
    monkeypatch.setattr(
        assessment._MomentPlan, "run",
        lambda self, *a, **k: (runs.append(1), real(self, *a, **k))[1],
    )
    ra = RapidAssessor(ediamond_continuous_model)
    answers = {ra.assess() for _ in range(50)}
    assert len(runs) == 1 and len(answers) == 1


def test_pure_sequence_workflow_is_exact(rng):
    """Without max joins the propagation is exact Gaussian algebra."""
    from repro.core.kertbn import build_continuous_kertbn
    from repro.simulator.delays import LogNormal
    from repro.simulator.environment import SimulatedEnvironment
    from repro.simulator.service import ServiceSpec
    from repro.workflow.constructs import sequence_of

    wf = sequence_of("s1", "s2", "s3")
    env = SimulatedEnvironment(
        workflow=wf,
        services=tuple(
            ServiceSpec(s, LogNormal(0.2, 0.3)) for s in ("s1", "s2", "s3")
        ),
    )
    train = env.simulate(800, rng=4)
    model = build_continuous_kertbn(wf, train)
    ra = RapidAssessor(model)
    m, v = ra.assess()
    # E[D] under the fitted model = sum of the fitted means, exactly.
    names, mean, cov = model.network.service_subnetwork().to_joint_gaussian()
    assert m == pytest.approx(float(mean.sum()))
    assert v == pytest.approx(
        float(cov.sum()) + model.network.cpd("D").variance
    )
