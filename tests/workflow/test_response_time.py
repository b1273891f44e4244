"""Cardoso reduction → f(X): the paper's Section 3.3 contract."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import WorkflowError
from repro.workflow.constructs import (
    Activity,
    Choice,
    Loop,
    Parallel,
    Sequence,
)
from repro.workflow.generator import random_workflow
from repro.workflow.response_time import response_time_function
from repro.workflow.timeout import timeout_count_function


def ediamond_wf():
    return Sequence(
        [
            Activity("X1"),
            Activity("X2"),
            Parallel(
                [
                    Sequence([Activity("X3"), Activity("X5")]),
                    Sequence([Activity("X4"), Activity("X6")]),
                ]
            ),
        ]
    )


def test_ediamond_function_matches_paper():
    f = response_time_function(ediamond_wf())
    assert f.to_string() == "X1 + X2 + max(X3 + X5, X4 + X6)"
    v = {f"X{i}": np.array([float(i)]) for i in range(1, 7)}
    # 1 + 2 + max(3+5, 4+6) = 13
    np.testing.assert_allclose(f(v), [13.0])


def test_inputs_cover_all_services():
    f = response_time_function(ediamond_wf())
    assert f.inputs == frozenset({"X1", "X2", "X3", "X4", "X5", "X6"})


def test_choice_measurement_mode_is_sum():
    wf = Choice([Activity("a"), Activity("b")], [0.5, 0.5])
    f = response_time_function(wf)
    # Exactly one branch is nonzero per transaction.
    np.testing.assert_allclose(f({"a": np.array([3.0]), "b": np.array([0.0])}), [3.0])
    np.testing.assert_allclose(f({"a": np.array([0.0]), "b": np.array([5.0])}), [5.0])


def test_loop_measurement_mode_identity():
    wf = Loop(Activity("a"), 0.5)
    f = response_time_function(wf)
    np.testing.assert_allclose(f({"a": np.array([6.0])}), [6.0])


def test_invalid_workflow_rejected():
    wf = Sequence([Activity("a"), Activity("a")])
    with pytest.raises(WorkflowError):
        response_time_function(wf)


def test_timeout_count_is_plain_sum():
    f = timeout_count_function(ediamond_wf())
    v = {f"X{i}": np.array([1.0]) for i in range(1, 7)}
    np.testing.assert_allclose(f(v), [6.0])


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_random_workflow_reduction_properties(n, seed):
    rng = np.random.default_rng(seed)
    wf = random_workflow(n, rng, p_choice=0.15, p_loop=0.1)
    f = response_time_function(wf)
    assert f.inputs == frozenset(wf.services())
    # Monotonicity: increasing any input cannot decrease f.
    base = {s: np.array([1.0]) for s in wf.services()}
    f0 = float(f(base)[0])
    for s in list(wf.services())[:3]:
        bumped = dict(base)
        bumped[s] = np.array([2.0])
        assert float(f(bumped)[0]) >= f0 - 1e-12
    # f of all-zeros is zero; f is positively homogeneous of degree 1
    # for sum/max trees (choice sums and loops preserve this too).
    zeros = {s: np.array([0.0]) for s in wf.services()}
    assert float(f(zeros)[0]) == pytest.approx(0.0)
    doubled = {s: np.array([2.0]) for s in wf.services()}
    assert float(f(doubled)[0]) == pytest.approx(2 * f0)


def test_vectorized_evaluation_matches_rowwise():
    f = response_time_function(ediamond_wf())
    rng = np.random.default_rng(5)
    cols = {s: rng.exponential(size=50) for s in f.inputs}
    vec = f(cols)
    for i in range(50):
        row = {s: np.array([cols[s][i]]) for s in f.inputs}
        assert vec[i] == pytest.approx(float(f(row)[0]))
