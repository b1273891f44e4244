"""Differential tests: the compiled moment plan against a scalar oracle.

``_clark_reference`` is a plain-Python propagation that shares no code
with :mod:`repro.apps.assessment`.  On seeded random workflows of 5–120
services the NumPy plan must reproduce it, the batched single-service
entry must reproduce one :meth:`RapidAssessor.assess` call per service,
and a batch mixing degenerate and regular ``Max`` rows must take the
degenerate branch row by row.
"""

import numpy as np
import pytest

from repro.apps import assessment
from repro.apps.assessment import RapidAssessor, _MomentPlan
from repro.apps.localization import ProblemLocalizer
from repro.core.kertbn import build_continuous_kertbn
from repro.simulator.delays import LogNormal
from repro.simulator.environment import SimulatedEnvironment
from repro.simulator.service import ServiceSpec
from repro.workflow.expressions import Const, Max, Sum, Var
from repro.workflow.generator import random_workflow
from repro.workflow.response_time import response_time_function

from tests.apps._clark_reference import reference_state

REL = 1e-9

#: (n_services, seed) of each random topology.
TOPOLOGIES = [(5, 0), (12, 1), (33, 2), (70, 3), (120, 4)]


def _close(a, b):
    return np.allclose(a, b, rtol=REL, atol=REL * 1e-3)


@pytest.fixture(scope="module", params=TOPOLOGIES, ids=lambda t: f"n{t[0]}")
def topology(request):
    n, seed = request.param
    rng = np.random.default_rng(seed)
    workflow = random_workflow(n, rng, p_parallel=0.45, p_choice=0.2, p_loop=0.15)
    services = tuple(
        ServiceSpec(
            s,
            LogNormal(float(rng.uniform(0.05, 1.0)), 0.4),
            upstream_coupling=float(rng.uniform(0.0, 0.3)),
        )
        for s in workflow.services()
    )
    env = SimulatedEnvironment(workflow=workflow, services=services)
    model = build_continuous_kertbn(workflow, env.simulate(150, rng=seed))
    return model, RapidAssessor(model), rng


def _reference(expr, assessor, evidence=None):
    names, mean, cov = assessor.joint
    return reference_state(expr, names, mean, cov, evidence)


def test_plan_matches_reference(topology):
    model, assessor, _ = topology
    state, idx = _reference(model.f.expression, assessor)
    ref_mean, ref_var = state.get(idx)
    m, v = assessor.assess()
    assert _close(m, ref_mean)
    assert _close(v, ref_var + model.network.cpd("D").variance)


def test_response_moments_match_reference(topology):
    model, assessor, _ = topology
    state, idx = _reference(model.f.expression, assessor)
    d_mean, _, per_service = assessor.response_moments()
    assert _close(d_mean, state.mean[idx])
    for name, (mean, var, cov_d) in per_service.items():
        i = state.index[name]
        expected = [state.mean[i], state.cov[i][i], state.cov[i][idx]]
        assert _close([mean, var, cov_d], expected)


def test_expectation_mode_plan_matches_reference(topology):
    """WeightedSum/Scale/Const steps, on the fitted service Gaussian."""
    model, assessor, _ = topology
    f = response_time_function(model.f.workflow, mode="expectation")
    expr = Sum([f.expression, Const(0.25)])
    names, mean, cov = assessor.joint
    plan = _MomentPlan(expr, names)
    means, covs = plan.run(mean[None], cov[None])
    state, idx = reference_state(expr, names, mean, cov)
    assert _close(means[0, plan.root], state.mean[idx])
    assert _close(covs[0, plan.root, plan.root], state.cov[idx][idx])
    k = plan.size
    assert _close(covs[0], np.array(state.cov)[:k, :k])


def test_assess_with_evidence_matches_reference(topology):
    model, assessor, rng = topology
    names, mean, _ = assessor.joint
    picked = rng.choice(len(names), size=min(3, len(names) - 1), replace=False)
    evidence = {names[i]: 1.4 * float(mean[i]) for i in picked}
    state, idx = _reference(model.f.expression, assessor, evidence)
    m, _ = assessor.assess(evidence)
    assert _close(m, state.mean[idx])


def test_assess_each_matches_single_assessments(topology, monkeypatch):
    model, assessor, rng = topology
    names, mean, cov = assessor.joint
    observed = {
        s: float(mean[i] + rng.normal(0.0, 2.0) * np.sqrt(cov[i, i]))
        for i, s in enumerate(names)
    }
    batch_m, batch_v = assessor.assess_each(observed)
    singles = np.array([assessor.assess({s: x}) for s, x in observed.items()])
    assert _close(batch_m, singles[:, 0])
    assert _close(batch_v, singles[:, 1])
    # Batches past the sweep budget run in chunks with the same answers.
    monkeypatch.setattr(assessment, "_SWEEP_FLOATS", 2 * assessor._plan.size**2)
    chunked_m, chunked_v = assessor.assess_each(observed)
    assert _close(chunked_m, batch_m) and _close(chunked_v, batch_v)
    # ... and localize ranks exactly as n separate assessments would.
    baseline, _ = assessor.assess()
    z = [(x - mean[i]) / np.sqrt(cov[i, i]) for i, x in enumerate(observed.values())]
    blame = np.abs(singles[:, 0] - baseline) * np.abs(z)
    expected = [names[i] for i in np.argsort(-blame, kind="stable")]
    ranked = ProblemLocalizer(model).localize(observed)
    assert [s.service for s in ranked] == expected


@pytest.mark.filterwarnings("error")
def test_mixed_degenerate_batch_takes_branch_row_by_row():
    names = ["a", "b", "c"]
    expr = Sum([Max([Var("a"), Var("b")]), Var("c")])
    identical = np.array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 0.5]])
    regular = np.array([[1.0, 0.3, 0.2], [0.3, 2.0, 0.1], [0.2, 0.1, 0.5]])
    # Rows 0 and 2 are degenerate (a and b the same variable): row 0 with
    # tied means, where Clark's alpha would be 0/0, row 2 with b larger.
    # Row 1 is a regular Clark step.
    mean = np.array([[3.0, 3.0, 1.0], [1.0, 2.0, 0.5], [2.0, 4.0, 1.0]])
    cov = np.stack([identical, regular, identical])
    plan = _MomentPlan(expr, names)
    means, covs = plan.run(mean, cov)
    max_slot = plan.size - 2
    for r in range(3):
        state, idx = reference_state(expr, names, mean[r], cov[r])
        k = plan.size
        assert _close(means[r], state.mean[:k])
        assert _close(covs[r], np.array(state.cov)[:k, :k])
        one_m, one_c = plan.run(mean[r : r + 1], cov[r : r + 1])
        assert np.array_equal(one_m[0], means[r])
        assert np.array_equal(one_c[0], covs[r])
    take = [0, None, 1]
    for r in (0, 2):
        assert means[r, max_slot] == mean[r, take[r]]
        assert covs[r, max_slot, max_slot] == cov[r, take[r], take[r]]
    assert means[1, max_slot] > mean[1].max()
