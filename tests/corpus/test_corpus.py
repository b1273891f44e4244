"""Scenario corpus: spec validation, determinism, derived knowledge."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import (
    ARRIVAL_REGIMES,
    DELAY_REGIMES,
    FAMILY_KNOBS,
    ScenarioSpec,
    build_scenario,
    default_corpus,
    failure_storm,
    run_cell,
    scenario_rng,
    summarize,
)
from repro.exceptions import SimulationError
from repro.simulator.delays import GG1, LogNormal, MMk
from repro.simulator.workload import (
    BurstyWorkload,
    DiurnalWorkload,
    OpenWorkload,
)


# --------------------------------------------------------------------- #
# ScenarioSpec and the default corpus
# --------------------------------------------------------------------- #


def test_spec_validation():
    with pytest.raises(SimulationError):
        ScenarioSpec("nope", 10, "lognormal")
    with pytest.raises(SimulationError):
        ScenarioSpec("mixed", 0, "lognormal")
    with pytest.raises(SimulationError):
        ScenarioSpec("mixed", 501, "lognormal")
    with pytest.raises(SimulationError):
        ScenarioSpec("mixed", 10, "pareto")
    with pytest.raises(SimulationError):
        ScenarioSpec("mixed", 10, "mmk", arrivals="weekly")
    with pytest.raises(SimulationError):
        ScenarioSpec("mixed", 10, "mmk", utilization=1.0)


def test_spec_name():
    spec = ScenarioSpec("mixed", 10, "mmk", arrivals="bursty",
                        failure_storm=True)
    assert spec.name == "mixed_n10_mmk"


def test_default_corpus_shape():
    corpus = default_corpus()
    # 3 families x 2 sizes x 3 delay regimes, all names unique.
    assert len(corpus) == 18
    assert len({s.name for s in corpus}) == 18
    assert {s.family for s in corpus} == {"sequence", "parallel", "mixed"}
    assert {s.delay for s in corpus} == set(DELAY_REGIMES)
    assert {s.arrivals for s in corpus} <= set(ARRIVAL_REGIMES)
    # Only the mixed family runs under failure storms.
    assert all(s.failure_storm == (s.family == "mixed") for s in corpus)


# --------------------------------------------------------------------- #
# Determinism: same (spec, seed) regenerates bit-identical scenarios
# --------------------------------------------------------------------- #


@given(
    family=st.sampled_from(sorted(FAMILY_KNOBS)),
    delay=st.sampled_from(DELAY_REGIMES),
    n=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=20, deadline=None)
def test_property_corpus_generation_deterministic(family, delay, n, seed):
    spec = ScenarioSpec(family, n, delay, failure_storm=True)
    a = build_scenario(spec, seed)
    b = build_scenario(spec, seed)
    assert a.env.workflow == b.env.workflow
    assert a.f.to_string() == b.f.to_string()
    assert sorted(a.structure.edges) == sorted(b.structure.edges)
    da = a.env.simulate(25, rng=seed + 1)
    db = b.env.simulate(25, rng=seed + 1)
    assert da.columns == db.columns
    np.testing.assert_array_equal(da.to_array(), db.to_array())


def test_different_seeds_differ():
    spec = ScenarioSpec("mixed", 12, "lognormal")
    a = build_scenario(spec, 0)
    b = build_scenario(spec, 1)
    da = a.env.simulate(25, rng=5)
    db = b.env.simulate(25, rng=5)
    assert not np.array_equal(da.to_array(), db.to_array())


def test_scenario_rng_keyed_by_spec_and_seed():
    s1 = ScenarioSpec("mixed", 10, "mmk", arrivals="bursty")
    s2 = ScenarioSpec("mixed", 10, "gg1", arrivals="diurnal")
    r11 = scenario_rng(s1, 0).random(4)
    r11b = scenario_rng(s1, 0).random(4)
    np.testing.assert_array_equal(r11, r11b)
    assert not np.array_equal(r11, scenario_rng(s2, 0).random(4))
    assert not np.array_equal(r11, scenario_rng(s1, 1).random(4))


# --------------------------------------------------------------------- #
# Generated scenarios: delays, workloads, storms, derived knowledge
# --------------------------------------------------------------------- #


def test_delay_regimes_map_to_distributions():
    expected = {"lognormal": LogNormal, "mmk": MMk, "gg1": GG1}
    for regime, cls in expected.items():
        spec = ScenarioSpec("sequence", 6, regime)
        scen = build_scenario(spec, 3)
        kinds = {type(s.delay) for s in scen.env.services}
        assert kinds == {cls}
        # Queueing-theoretic delays model their own waiting time, so
        # the engine's FIFO queue must be off for them.
        queueing = {s.queueing for s in scen.env.services}
        assert queueing == {regime == "lognormal"}


def test_arrival_regimes_map_to_workloads():
    cases = {
        "steady": OpenWorkload,
        "bursty": BurstyWorkload,
        "diurnal": DiurnalWorkload,
    }
    for arrivals, cls in cases.items():
        spec = ScenarioSpec("sequence", 4, "lognormal", arrivals=arrivals)
        assert isinstance(build_scenario(spec, 0).env.workload, cls)


def test_failure_storm_windows():
    rng = np.random.default_rng(0)
    schedule = failure_storm(("X1", "X2", "X3"), rng, n_windows=5,
                             horizon=600.0)
    assert len(schedule.degradations) == 5
    for d in schedule.degradations:
        assert d.service in ("X1", "X2", "X3")
        assert 0.0 <= d.start < d.end <= 600.0
        assert 2.0 <= d.factor <= 6.0


def test_storm_rider_attached_only_when_requested():
    calm = build_scenario(ScenarioSpec("sequence", 5, "lognormal"), 0)
    stormy = build_scenario(
        ScenarioSpec("sequence", 5, "lognormal", failure_storm=True), 0
    )
    assert calm.env.faults is None
    assert stormy.env.faults is not None


@pytest.mark.parametrize("family", ("choice", "loop", "mixed"))
def test_derived_knowledge_for_choice_loop_families(family):
    """f(X) and the KERT-BN structure are derived automatically even for
    the constructs the original generator never exercised."""
    spec = ScenarioSpec(family, 12, "lognormal")
    scen = build_scenario(spec, 7)
    assert scen.env.workflow.n_services() == 12
    f_text = scen.f.to_string()
    for name in scen.env.workflow.services():
        assert name in f_text or family in ("choice", "mixed")
    nodes = set(scen.structure.nodes)
    assert set(scen.env.workflow.services()) <= nodes
    assert scen.env.response in nodes


# --------------------------------------------------------------------- #
# run_cell / summarize plumbing
# --------------------------------------------------------------------- #


def test_run_cell_smoke():
    spec = ScenarioSpec("sequence", 5, "lognormal")
    cell = run_cell(spec, seed=11, n_train=30, n_test=40)
    for model in ("kert", "nrt"):
        assert cell[model]["build_s"] > 0.0
        assert cell[model]["score_rows_per_s"] > 0.0
        assert np.isfinite(cell[model]["log10_per_row"])
    assert cell["n_train"] == 30 and cell["n_test"] == 40
    assert cell["kert_win"] == (
        cell["kert"]["log10_per_row"] >= cell["nrt"]["log10_per_row"] - 1e-9
    )
    with pytest.raises(SimulationError):
        run_cell(spec, n_train=1)


def test_summarize():
    cells = {
        "a": {"log10_gap_per_row": 1.0, "nrt_over_kert_build": 10.0,
              "kert_win": True},
        "b": {"log10_gap_per_row": -0.5, "nrt_over_kert_build": 4.0,
              "kert_win": False},
    }
    s = summarize(cells)
    assert s["n_cells"] == 2
    assert s["kert_win_fraction"] == pytest.approx(0.5)
    assert s["median_log10_gap_per_row"] == pytest.approx(0.25)
    assert s["nrt_over_kert_build_median"] == pytest.approx(7.0)
    with pytest.raises(SimulationError):
        summarize({})
