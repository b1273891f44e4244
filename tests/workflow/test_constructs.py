"""Workflow AST construction and validation."""

import pytest

from repro.exceptions import WorkflowError
from repro.workflow.constructs import (
    Activity,
    Choice,
    Loop,
    Parallel,
    Sequence,
    sequence_of,
)


def test_activity_basics():
    a = Activity("svc")
    assert a.services() == ("svc",)
    assert a.children() == ()
    assert a.depth() == 1
    with pytest.raises(WorkflowError):
        Activity("")


def test_sequence_services_in_order():
    s = sequence_of("a", "b", "c")
    assert s.services() == ("a", "b", "c")
    assert s.depth() == 2
    with pytest.raises(WorkflowError):
        Sequence([])


def test_parallel_arity():
    with pytest.raises(WorkflowError):
        Parallel([Activity("a")])
    p = Parallel([Activity("a"), Activity("b")])
    assert set(p.services()) == {"a", "b"}


def test_choice_probability_validation():
    branches = [Activity("a"), Activity("b")]
    with pytest.raises(WorkflowError):
        Choice(branches, [0.5])
    with pytest.raises(WorkflowError):
        Choice(branches, [0.7, 0.7])
    with pytest.raises(WorkflowError):
        Choice(branches, [-0.5, 1.5])
    c = Choice(branches, [0.3, 0.7])
    assert c.probabilities == (0.3, 0.7)


def test_loop_validation():
    with pytest.raises(WorkflowError):
        Loop(Activity("a"), 1.0)
    with pytest.raises(WorkflowError):
        Loop(Activity("a"), -0.1)
    assert Loop(Activity("a"), 0.5).continue_prob == 0.5


def test_non_workflow_child_rejected():
    with pytest.raises(WorkflowError):
        Sequence(["not-a-node"])
    with pytest.raises(WorkflowError):
        Loop("not-a-node", 0.1)


def test_duplicate_service_names_rejected():
    wf = Sequence([Activity("a"), Activity("a")])
    with pytest.raises(WorkflowError):
        wf.validate()


def test_walk_preorder():
    wf = Sequence([Activity("a"), Parallel([Activity("b"), Activity("c")])])
    kinds = [type(n).__name__ for n in wf.walk()]
    assert kinds == ["Sequence", "Activity", "Parallel", "Activity", "Activity"]


def test_structural_equality_and_hash():
    w1 = Sequence([Activity("a"), Activity("b")])
    w2 = Sequence([Activity("a"), Activity("b")])
    w3 = Sequence([Activity("b"), Activity("a")])
    assert w1 == w2
    assert hash(w1) == hash(w2)
    assert w1 != w3
    assert w1 != Parallel([Activity("a"), Activity("b")])
