"""AutonomicManager: the closed MAPE loop on a simulated environment."""

import numpy as np
import pytest

from repro.core.manager import (
    AutonomicManager,
    CycleReport,
    SLAPolicy,
    inject_degradation,
)
from repro.exceptions import ReproError
from repro.simulator.scenarios.ediamond import ediamond_scenario


def test_policy_validation():
    with pytest.raises(ReproError):
        SLAPolicy(threshold=0.0, max_violation_prob=0.1)
    with pytest.raises(ReproError):
        SLAPolicy(threshold=2.0, max_violation_prob=1.5)
    with pytest.raises(ReproError):
        SLAPolicy(threshold=2.0, max_violation_prob=0.1, candidate_speedups=(1.5,))
    with pytest.raises(ReproError):
        AutonomicManager(ediamond_scenario(), SLAPolicy(2.0, 0.1), window_points=5)


def test_healthy_environment_no_action():
    env = ediamond_scenario()
    policy = SLAPolicy(threshold=6.0, max_violation_prob=0.2)
    mgr = AutonomicManager(env, policy, window_points=200, rng=1)
    report = mgr.run_cycle()
    assert isinstance(report, CycleReport)
    assert not report.acted
    assert report.violation_prob <= 0.2
    assert report.model is not None


def test_degradation_triggers_remediation():
    env = ediamond_scenario()
    inject_degradation(env, "X5", 2.5)
    policy = SLAPolicy(threshold=3.0, max_violation_prob=0.15)
    mgr = AutonomicManager(env, policy, window_points=250, rng=2)
    report = mgr.run_cycle()
    assert report.acted
    service, factor = report.action
    assert service == "X5"  # the degraded service is the one accelerated
    assert 0 < factor < 1
    assert report.projected_violation_prob is not None
    assert report.suspects  # localization evidence recorded


def test_remediation_actually_helps():
    env = ediamond_scenario()
    inject_degradation(env, "X6", 2.5)
    policy = SLAPolicy(threshold=3.5, max_violation_prob=0.15)
    mgr = AutonomicManager(env, policy, window_points=250, rng=3)
    first = mgr.run_cycle()
    assert first.acted
    second = mgr.run_cycle()
    # After the action, measured violation probability drops.
    assert second.violation_prob < first.violation_prob


def test_run_n_cycles_history():
    env = ediamond_scenario()
    policy = SLAPolicy(threshold=6.0, max_violation_prob=0.3)
    mgr = AutonomicManager(env, policy, window_points=120, rng=4)
    reports = mgr.run(3)
    assert len(reports) == 3
    assert [r.cycle for r in reports] == [0, 1, 2]
    assert mgr.history == reports
    with pytest.raises(ReproError):
        mgr.run(0)


def test_inject_degradation_validation():
    env = ediamond_scenario()
    with pytest.raises(ReproError):
        inject_degradation(env, "X1", 0.0)
    with pytest.raises(ReproError):
        inject_degradation(env, "ghost", 2.0)


def test_environment_scale_service_is_the_mutation_point():
    # inject_degradation and the manager's execute step both go through
    # SimulatedEnvironment.scale_service — no half-built manager objects.
    env = ediamond_scenario()
    before = {s.name: s.delay for s in env.services}
    env.scale_service("X3", 2.0)
    after = {s.name: s.delay for s in env.services}
    assert after["X3"] is not before["X3"]
    assert all(after[n] is before[n] for n in before if n != "X3")
    with pytest.raises(ReproError):
        env.scale_service("X3", 0.0)
    with pytest.raises(ReproError):
        env.scale_service("ghost", 0.5)


def _all_nan_window(env, n):
    from repro.bn.data import Dataset

    cols = {s: np.full(n, np.nan) for s in env.service_names}
    cols[env.response] = np.full(n, np.nan)
    return Dataset(cols)


def test_unlearnable_window_survives_and_reuses_reference():
    """Acceptance: a cycle with an all-NaN window must not crash the MAPE
    loop — the manager degrades to the last healthy model and resumes."""
    env = ediamond_scenario()
    policy = SLAPolicy(threshold=6.0, max_violation_prob=0.3)
    mgr = AutonomicManager(env, policy, window_points=120, rng=5)
    healthy = mgr.run_cycle()
    assert not healthy.degraded
    reference = mgr._reference_model
    assert reference is not None

    env.simulate = lambda n, rng=None: _all_nan_window(env, n)
    degraded = mgr.run_cycle()
    assert degraded.degraded
    assert "no finite values" in degraded.incident
    assert degraded.model is reference       # last healthy model reused
    assert not degraded.acted
    assert np.isfinite(degraded.violation_prob)
    assert mgr._reference_model is reference  # NaN cycle never promoted

    del env.simulate                         # restore the real method
    recovered = mgr.run_cycle()
    assert not recovered.degraded
    assert [r.cycle for r in mgr.history] == [0, 1, 2]


def test_rebuild_exception_degrades_cycle(monkeypatch):
    from repro.core import manager as manager_mod
    from repro.exceptions import LearningError

    env = ediamond_scenario()
    policy = SLAPolicy(threshold=6.0, max_violation_prob=0.3)
    mgr = AutonomicManager(env, policy, window_points=120, rng=6)
    mgr.run_cycle()

    def boom(workflow, data):
        raise LearningError("degenerate covariance")

    monkeypatch.setattr(manager_mod, "build_continuous_kertbn", boom)
    report = mgr.run_cycle()
    assert report.degraded
    assert "model rebuild failed" in report.incident
    assert "degenerate covariance" in report.incident
    assert not report.acted


def test_degraded_cycle_without_reference_reports_nan():
    env = ediamond_scenario()
    policy = SLAPolicy(threshold=6.0, max_violation_prob=0.3)
    mgr = AutonomicManager(env, policy, window_points=120, rng=7)
    env.simulate = lambda n, rng=None: _all_nan_window(env, n)
    report = mgr.run_cycle()   # very first cycle already unlearnable
    assert report.degraded
    assert report.model is None
    assert np.isnan(report.violation_prob)
    assert np.isnan(report.expected_response)
    assert len(mgr.history) == 1


# --------------------------------------------------------------------- #
# Serving-layer integration: registry publishing + quality quarantine
# --------------------------------------------------------------------- #


def test_manager_publishes_healthy_cycles_to_registry(tmp_path):
    from repro.serving.registry import ModelRegistry

    env = ediamond_scenario()
    policy = SLAPolicy(threshold=6.0, max_violation_prob=0.3)
    reg = ModelRegistry(str(tmp_path / "reg"))
    mgr = AutonomicManager(env, policy, window_points=150, rng=11, registry=reg)
    r1 = mgr.run_cycle()
    r2 = mgr.run_cycle()
    assert (r1.published_version, r2.published_version) == (1, 2)
    assert not r1.rolled_back and not r2.rolled_back
    assert reg.active_version == 2
    # the published bundle is a live, loadable model
    assert reg.load().report.model_kind == "kert-bn/continuous"
    # and the manager can hand out a guarded server over it
    srv = mgr.model_server(rng=0)
    assert srv.version == 2
    result = srv.violation_prob(policy.threshold)
    assert result.ok and 0.0 <= result.value <= 1.0


def test_manager_quarantines_poisoned_window(tmp_path):
    from repro.bn.data import Dataset
    from repro.serving.quality import DataQualityGate

    env = ediamond_scenario()
    policy = SLAPolicy(threshold=6.0, max_violation_prob=0.3)
    gate = DataQualityGate(
        columns=(*env.service_names, env.response),
        min_rows=10,
        drift_threshold=6.0,
    )
    mgr = AutonomicManager(
        env, policy, window_points=150, rng=12, quality_gate=gate
    )
    healthy = mgr.run_cycle()
    assert not healthy.degraded and healthy.window_verdict.accepted

    real_simulate = env.simulate

    def poisoned(n, rng=None):
        data = real_simulate(n, rng=rng)
        return Dataset({c: np.asarray(data[c]) * 50.0 for c in data.columns})

    env.simulate = poisoned
    report = mgr.run_cycle()
    assert report.degraded and report.quarantined
    assert "quarantined" in report.incident
    assert not report.window_verdict.accepted
    assert gate.quarantined and gate.quarantined[0][0] == 1
    assert not report.acted

    del env.simulate
    recovered = mgr.run_cycle()
    assert not recovered.degraded and not recovered.quarantined


def test_manager_tripwire_rolls_back_regressed_publish(tmp_path, monkeypatch):
    """A cycle that builds a much-worse model publishes it, trips the
    accuracy tripwire, and the registry auto-rolls back."""
    from repro.core import manager as manager_mod
    from repro.serving.registry import ModelRegistry

    env = ediamond_scenario()
    policy = SLAPolicy(threshold=6.0, max_violation_prob=0.3)
    reg = ModelRegistry(str(tmp_path / "reg"))
    mgr = AutonomicManager(
        env, policy, window_points=150, rng=13,
        registry=reg, tripwire_max_regression=0.25,
    )
    first = mgr.run_cycle()
    assert first.published_version == 1

    real_build = manager_mod.build_continuous_kertbn

    def garbage_build(workflow, data):
        from repro.bn.data import Dataset

        r = np.random.default_rng(0)
        noise = Dataset(
            {c: r.uniform(0.1, 10.0, size=data.n_rows) for c in data.columns}
        )
        return real_build(workflow, noise)

    monkeypatch.setattr(manager_mod, "build_continuous_kertbn", garbage_build)
    second = mgr.run_cycle()
    assert second.published_version == 2
    assert second.rolled_back
    assert "rolled back" in second.incident
    assert reg.active_version == 1
    assert not reg.info(2).healthy


def test_quarantined_windows_reuse_the_reference_assessor(monkeypatch):
    """Degraded cycles answer from the healthy cycle's assessor and its
    one evidence-free sweep: two quarantined windows in a row build no
    assessor and run no sweep."""
    from repro.apps import assessment
    from repro.bn.data import Dataset
    from repro.serving.quality import DataQualityGate

    env = ediamond_scenario()
    policy = SLAPolicy(threshold=6.0, max_violation_prob=0.3)
    gate = DataQualityGate(columns=(*env.service_names, env.response))
    mgr = AutonomicManager(env, policy, window_points=150, rng=12, quality_gate=gate)
    healthy = mgr.run_cycle()
    assert not healthy.degraded and not healthy.acted

    built, sweeps = [], []
    init, run = assessment.RapidAssessor.__init__, assessment._MomentPlan.run
    monkeypatch.setattr(
        assessment.RapidAssessor, "__init__",
        lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1],
    )
    monkeypatch.setattr(
        assessment._MomentPlan, "run",
        lambda self, *a, **k: (sweeps.append(1), run(self, *a, **k))[1],
    )
    real_simulate = env.simulate

    def poisoned(n, rng=None):
        data = real_simulate(n, rng=rng)
        return Dataset({c: np.asarray(data[c]) * 50.0 for c in data.columns})

    env.simulate = poisoned
    reports = [mgr.run_cycle(), mgr.run_cycle()]
    assert all(r.quarantined and r.model is healthy.model for r in reports)
    assert [r.violation_prob for r in reports] == [healthy.violation_prob] * 2
    assert [r.expected_response for r in reports] == [healthy.expected_response] * 2
    assert built == [] and sweeps == []


def test_history_is_bounded_and_cycles_keep_counting(monkeypatch):
    from repro.core import manager as manager_mod

    monkeypatch.setattr(manager_mod, "HISTORY_LIMIT", 3)
    env = ediamond_scenario()
    mgr = AutonomicManager(env, SLAPolicy(6.0, 0.3), window_points=60, rng=8)
    reports = mgr.run(5)
    assert [r.cycle for r in reports] == [0, 1, 2, 3, 4]
    assert mgr.history == reports[-3:]


def test_knowledge_is_rederived_only_for_a_new_workflow():
    from repro.workflow.constructs import Activity, Sequence

    env = ediamond_scenario()
    mgr = AutonomicManager(env, SLAPolicy(6.0, 0.3), window_points=60, rng=9)
    knowledge = mgr._knowledge
    env.scale_service("X3", 1.1)  # new delay specs, same workflow object
    first = mgr.run_cycle()
    assert mgr._knowledge is knowledge and first.model.f is knowledge.f
    assert first.model.report.structure_seconds == knowledge.seconds
    names = env.service_names
    env.workflow = Sequence([Activity(s) for s in names])
    second = mgr.run_cycle()
    assert mgr._knowledge is not knowledge
    assert mgr._knowledge.workflow is env.workflow
    assert second.model.f is mgr._knowledge.f
    dag = second.model.network.dag
    assert all(dag.has_edge(u, v) for u, v in zip(names, names[1:]))
