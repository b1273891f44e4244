"""Expression-tree evaluation and simplification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import WorkflowError
from repro.workflow.expressions import Max, Sum, Var, simplify


def vals(**kw):
    return {k: np.asarray(v, dtype=float) for k, v in kw.items()}


def test_var():
    v = Var("x")
    np.testing.assert_allclose(v(vals(x=[1, 2])), [1, 2])
    with pytest.raises(WorkflowError):
        v(vals(y=[1]))
    assert v.inputs == frozenset({"x"})


def test_sum_and_max():
    e = Sum([Var("a"), Var("b")])
    np.testing.assert_allclose(e(vals(a=[1, 2], b=[10, 20])), [11, 22])
    m = Max([Var("a"), Var("b")])
    np.testing.assert_allclose(m(vals(a=[1, 30], b=[10, 20])), [10, 30])
    assert e.inputs == {"a", "b"}
    with pytest.raises(WorkflowError):
        Sum([])
    with pytest.raises(WorkflowError):
        Max([Var("a")])


def test_operator_sugar():
    e = Var("a") + Var("b")
    assert isinstance(e, Sum)
    np.testing.assert_allclose(e(vals(a=[1], b=[2])), [3])


def test_to_string_readable():
    e = Sum([Var("X1"), Var("X2"), Max([Sum([Var("X3"), Var("X5")]),
                                        Sum([Var("X4"), Var("X6")])])])
    assert e.to_string() == "X1 + X2 + max(X3 + X5, X4 + X6)"


def test_simplify_flattens_nested_sums():
    e = Sum([Sum([Var("a"), Var("b")]), Sum([Var("c")])])
    s = simplify(e)
    assert s.to_string() == "a + b + c"


def test_simplify_flattens_nested_maxes():
    e = Max([Max([Var("a"), Var("b")]), Var("c")])
    s = simplify(e)
    assert s.to_string() == "max(a, b, c)"


def test_simplify_collapses_single_term_sum():
    assert simplify(Sum([Var("a")])).to_string() == "a"


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
             min_size=3, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_simplify_preserves_semantics(xs):
    raw = Sum([Sum([Var("a"), Max([Var("b"), Var("c")])]), Sum([Var("a")])])
    simp = simplify(raw)
    v = vals(a=[xs[0]], b=[xs[1]], c=[xs[2]])
    np.testing.assert_allclose(raw(v), simp(v))
