"""Trace → dataset conversion, missing-data injection, warm-up filter."""

import numpy as np
import pytest

from repro.bn.data import Dataset
from repro.exceptions import DataError
from repro.simulator.engine import TransactionRecord
from repro.simulator.traces import inject_missing, trace_to_dataset, warmup_filter


def records(n=10):
    out = []
    for i in range(n):
        r = TransactionRecord(request_id=i, arrival=float(i))
        r.completion = i + 2.0
        r.elapsed = {"a": 1.0 + i * 0.1, "b": 0.5}
        r.invocations = {"a": 1, "b": 1}
        out.append(r)
    return out


def test_trace_to_dataset_per_transaction():
    data = trace_to_dataset(records(), ["a", "b"])
    assert data.columns == ("a", "b", "D")
    assert data.n_rows == 10
    np.testing.assert_allclose(data["D"], 2.0)
    np.testing.assert_allclose(data["b"], 0.5)


def test_trace_to_dataset_zero_fills_untouched_services():
    data = trace_to_dataset(records(), ["a", "b", "ghost"])
    np.testing.assert_allclose(data["ghost"], 0.0)


def test_trace_to_dataset_noise_perturbs_services_not_response(rng):
    data = trace_to_dataset(records(), ["a", "b"], measurement_noise=0.1, rng=rng)
    assert not np.allclose(data["b"], 0.5)
    np.testing.assert_allclose(data["D"], 2.0)  # response measured at client
    assert np.all(data["a"] >= 0)


def test_trace_to_dataset_validation():
    with pytest.raises(DataError):
        trace_to_dataset([], ["a"])
    with pytest.raises(DataError):
        trace_to_dataset(records(), ["a", "D"])


def test_inject_missing_full_and_partial(rng):
    data = Dataset({"a": np.ones(100), "b": np.ones(100)})
    full = inject_missing(data, ["a"])
    assert np.isnan(full["a"]).all()
    assert not np.isnan(full["b"]).any()
    part = inject_missing(data, ["a"], fraction=0.5, rng=rng)
    frac = np.isnan(part["a"]).mean()
    assert 0.3 < frac < 0.7
    with pytest.raises(DataError):
        inject_missing(data, ["zzz"])
    with pytest.raises(DataError):
        inject_missing(data, ["a"], fraction=0.0)


def test_warmup_filter():
    rs = records()
    assert len(warmup_filter(rs, 3)) == 7
    with pytest.raises(DataError):
        warmup_filter(rs, 10)
    with pytest.raises(DataError):
        warmup_filter(rs, -1)
