"""Build reports."""

import pytest

from repro.core.metrics import BuildReport


def report(structure=1.0, params=0.5, per_cpd=None):
    return BuildReport(
        model_kind="test",
        structure_seconds=structure,
        parameter_seconds=params,
        per_cpd_seconds=per_cpd or {"a": 0.2, "b": 0.3},
        n_nodes=2,
        n_edges=1,
        n_parameters=5,
        n_training_rows=100,
    )


def test_construction_time_sum():
    r = report()
    assert r.construction_seconds == pytest.approx(1.5)


def test_decentralized_vs_centralized():
    r = report(per_cpd={"a": 0.2, "b": 0.3, "c": 0.1})
    assert r.decentralized_parameter_seconds == pytest.approx(0.3)
    assert r.centralized_parameter_seconds == pytest.approx(0.6)
    empty = report(per_cpd={})
    empty.per_cpd_seconds = {}
    assert empty.decentralized_parameter_seconds == 0.0

