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

