"""Unit tests for the Dataset container."""

import numpy as np
import pytest

from repro.bn.data import Dataset
from repro.exceptions import DataError


def make(n=5):
    return Dataset({"x": np.arange(n, dtype=float), "y": np.arange(n) * 2.0})


def test_basic_accessors():
    d = make()
    assert d.columns == ("x", "y")
    assert d.n_rows == 5
    assert len(d) == 5
    assert "x" in d and "z" not in d
    assert list(d) == ["x", "y"]
    np.testing.assert_array_equal(d["y"], [0, 2, 4, 6, 8])


def test_empty_and_mismatched_columns_rejected():
    with pytest.raises(DataError):
        Dataset({})
    with pytest.raises(DataError):
        Dataset({"a": np.zeros(3), "b": np.zeros(4)})
    with pytest.raises(DataError):
        Dataset({"a": np.zeros((2, 2))})


def test_missing_column_raises():
    with pytest.raises(DataError):
        make()["nope"]


def test_from_array_roundtrip():
    arr = np.arange(12, dtype=float).reshape(4, 3)
    d = Dataset.from_array(arr, ["a", "b", "c"])
    np.testing.assert_array_equal(d.to_array(["a", "b", "c"]), arr)
    np.testing.assert_array_equal(d.to_array(["c", "a"]), arr[:, [2, 0]])


def test_from_array_shape_mismatch():
    with pytest.raises(DataError):
        Dataset.from_array(np.zeros((3, 2)), ["a", "b", "c"])


def test_select_and_rows():
    d = make()
    s = d.select(["y"])
    assert s.columns == ("y",)
    r = d.rows(np.array([0, 2]))
    np.testing.assert_array_equal(r["x"], [0, 2])
    m = d.rows(d["x"] > 2)
    np.testing.assert_array_equal(m["x"], [3, 4])


def test_head():
    d = make()
    np.testing.assert_array_equal(d.head(2)["x"], [0, 1])
    assert d.head(100).n_rows == 5


def test_split():
    d = make()
    tr, te = d.split(3)
    assert tr.n_rows == 3 and te.n_rows == 2
    with pytest.raises(DataError):
        d.split(0)
    with pytest.raises(DataError):
        d.split(5)


def test_concat():
    d = make(3)
    c = Dataset.concat([d, d])
    assert c.n_rows == 6
    with pytest.raises(DataError):
        Dataset.concat([])
    with pytest.raises(DataError):
        Dataset.concat([d, Dataset({"x": np.zeros(2)})])


def test_equality():
    assert make() == make()
    assert make() != make(4)
