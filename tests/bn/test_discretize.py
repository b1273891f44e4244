"""Discretization: binning invariants and inverse maps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bn.data import Dataset
from repro.bn.discretize import Discretizer
from repro.core.persistence import discretizer_from_dict, discretizer_to_dict
from repro.exceptions import DataError


def test_constructor_validation():
    with pytest.raises(DataError):
        Discretizer(n_bins=1)
    with pytest.raises(DataError):
        Discretizer(strategy="kmeans")


def test_quantile_bins_roughly_balanced(rng):
    x = rng.normal(size=10_000)
    d = Discretizer(n_bins=4).fit(Dataset({"x": x}))
    t = d.transform(Dataset({"x": x}))
    counts = np.bincount(t["x"], minlength=4)
    np.testing.assert_allclose(counts / 10_000, 0.25, atol=0.02)


def test_uniform_bins_equal_width(rng):
    x = rng.uniform(0, 10, size=1000)
    d = Discretizer(n_bins=5, strategy="uniform").fit(Dataset({"x": x}))
    widths = np.diff(d.edges("x"))
    np.testing.assert_allclose(widths, widths[0], rtol=1e-6)


def test_transform_unfitted_column_raises(rng):
    d = Discretizer().fit(Dataset({"x": rng.normal(size=100)}))
    with pytest.raises(DataError):
        d.transform(Dataset({"y": rng.normal(size=100)}), ["y"])


def test_out_of_range_values_clip_to_edge_bins(rng):
    x = rng.normal(size=1000)
    d = Discretizer(n_bins=3).fit(Dataset({"x": x}))
    t = d.transform(Dataset({"x": np.array([-100.0, 100.0])}))
    assert t["x"][0] == 0
    assert t["x"][1] == d.cardinality("x") - 1


def test_centers_are_within_edges(rng):
    x = rng.exponential(size=5000)
    d = Discretizer(n_bins=5).fit(Dataset({"x": x}))
    edges = d.edges("x")
    centers = d.centers("x")
    for b in range(len(centers)):
        assert edges[b] <= centers[b] <= edges[b + 1]


def test_constant_column_still_yields_two_bins():
    d = Discretizer(n_bins=5).fit(Dataset({"x": np.full(100, 3.0)}))
    assert d.cardinality("x") >= 2
    t = d.transform(Dataset({"x": np.full(10, 3.0)}))
    assert np.all((0 <= t["x"]) & (t["x"] < d.cardinality("x")))


def test_heavy_ties_deduplicate_edges():
    x = np.concatenate([np.zeros(900), np.linspace(1, 2, 100)])
    d = Discretizer(n_bins=5).fit(Dataset({"x": x}))
    assert np.all(np.diff(d.edges("x")) > 0)


def test_expectation(rng):
    x = rng.normal(size=2000)
    d = Discretizer(n_bins=4).fit(Dataset({"x": x}))
    pmf = np.array([0.25, 0.25, 0.25, 0.25])[: d.cardinality("x")]
    pmf = pmf / pmf.sum()
    e = d.expectation("x", pmf)
    assert d.edges("x")[0] <= e <= d.edges("x")[-1]
    with pytest.raises(DataError):
        d.expectation("x", np.ones(17))


def test_state_of_matches_transform(rng):
    x = rng.normal(size=500)
    d = Discretizer(n_bins=6).fit(Dataset({"x": x}))
    t = d.transform(Dataset({"x": x}))["x"]
    for i in [0, 100, 499]:
        assert d.state_of("x", float(x[i])) == t[i]


_SPECIAL = [float("nan"), float("inf"), float("-inf"), 1e300, -1e300, 0.0, -0.0]


@st.composite
def _edges_and_values(draw):
    """Strictly increasing edges plus probe values: exact edges, values
    beyond the outer edges, ±inf, NaN, ±1e300 and arbitrary floats."""
    edges = sorted(
        draw(
            st.sets(
                st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
                min_size=2,
                max_size=8,
            )
        )
    )
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from(edges),
                st.sampled_from([edges[0] - 1.0, edges[-1] + 1.0]),
                st.sampled_from(_SPECIAL),
                st.floats(),
            ),
            min_size=1,
            max_size=20,
        )
    )
    return edges, values


@given(_edges_and_values(), st.integers(min_value=2, max_value=6))
@settings(max_examples=100, deadline=None)
def test_state_of_is_transform_of_one_value(case, n_bins):
    """The scalar lookup agrees with the vectorized bin for every float,
    whether the edges came from fit, from_edges or a persisted bundle."""
    edges, values = case
    fitted = Discretizer(n_bins=n_bins).fit(Dataset({"x": np.asarray(edges)}))
    given_edges = Discretizer.from_edges({"x": edges})
    for d in (
        fitted,
        given_edges,
        discretizer_from_dict(discretizer_to_dict(fitted)),
        discretizer_from_dict(discretizer_to_dict(given_edges)),
    ):
        for v in values + d.edges("x").tolist():
            expected = d.transform(Dataset({"x": np.asarray([v])}))["x"][0]
            assert d.state_of("x", v) == expected, (v, d.edges("x"))


def test_refit_rebins_against_new_edges():
    d = Discretizer(n_bins=2).fit(Dataset({"x": np.array([0.0, 1.0, 2.0])}))
    assert d.state_of("x", 1.5) == 1
    d.fit(Dataset({"x": np.array([10.0, 11.0, 12.0])}))
    assert d.state_of("x", 1.5) == 0
    assert d.state_of("x", 11.5) == 1


def test_state_of_unfitted_column_raises():
    with pytest.raises(DataError):
        Discretizer().state_of("x", 1.0)
    d = Discretizer().fit(Dataset({"x": np.arange(10.0)}))
    with pytest.raises(DataError):
        d.state_of("y", 1.0)


def test_stored_edges_are_read_only():
    caller_edges = np.array([0.0, 1.0, 2.0])
    given_edges = Discretizer.from_edges({"x": caller_edges})
    fitted = Discretizer().fit(Dataset({"x": np.arange(10.0)}))
    for d in (given_edges, fitted):
        with pytest.raises(ValueError):
            d.edges("x")[1] = 0.5
    caller_edges[1] = 0.5  # from_edges stored a copy
    assert given_edges.edges("x")[1] == 1.0


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=10,
        max_size=300,
    ),
    st.integers(min_value=2, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_property_bins_always_in_range(values, n_bins):
    x = np.asarray(values)
    d = Discretizer(n_bins=n_bins).fit(Dataset({"x": x}))
    t = d.transform(Dataset({"x": x}))["x"]
    assert t.min() >= 0
    assert t.max() < d.cardinality("x")
    # Round trip through centers stays inside the observed range (loosely).
    centers = d.centers("x")
    assert centers.min() >= x.min() - 1e-6
    assert centers.max() <= x.max() + 1e-6
