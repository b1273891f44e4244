"""Workflow AST: the four constructs of Cardoso et al.

Every leaf is an :class:`Activity` naming one service; inner nodes are
:class:`Sequence`, :class:`Parallel`, :class:`Choice` and :class:`Loop`.
Service names must be unique across a workflow — each becomes exactly one
elapsed-time node ``X_i`` of the KERT-BN.
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, Sequence as Seq

from repro.exceptions import WorkflowError


class WorkflowNode(abc.ABC):
    """Base class for workflow AST nodes."""

    @abc.abstractmethod
    def services(self) -> tuple[str, ...]:
        """All service names in this subtree, in document order."""

    @abc.abstractmethod
    def children(self) -> tuple["WorkflowNode", ...]:
        """Direct sub-workflows (empty for activities)."""

    def walk(self) -> Iterator["WorkflowNode"]:
        """Depth-first pre-order traversal."""
        yield self
        for child in self.children():
            yield from child.walk()

    def depth(self) -> int:
        """Nesting depth (an Activity has depth 1)."""
        kids = self.children()
        return 1 + (max(k.depth() for k in kids) if kids else 0)

    def n_services(self) -> int:
        return len(self.services())

    def validate(self) -> None:
        """Check structural invariants; raises :class:`WorkflowError`.

        - every service name occurs exactly once;
        - composite nodes have the arity their semantics require.
        """
        seen: set[str] = set()
        for node in self.walk():
            if isinstance(node, Activity):
                if node.name in seen:
                    raise WorkflowError(
                        f"service {node.name!r} appears more than once"
                    )
                seen.add(node.name)

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    @abc.abstractmethod
    def _key(self) -> tuple:
        """Structural identity key for equality/hashing."""


class Activity(WorkflowNode):
    """A single service invocation."""

    def __init__(self, name: str):
        name = str(name)
        if not name:
            raise WorkflowError("service name must be non-empty")
        self.name = name

    def services(self) -> tuple[str, ...]:
        return (self.name,)

    def children(self) -> tuple[WorkflowNode, ...]:
        return ()

    def _key(self) -> tuple:
        return ("activity", self.name)

    def __repr__(self) -> str:
        return f"Activity({self.name!r})"


class Sequence(WorkflowNode):
    """Sub-workflows executed one after another."""

    def __init__(self, steps: Iterable[WorkflowNode]):
        self.steps: tuple[WorkflowNode, ...] = tuple(steps)
        if len(self.steps) < 1:
            raise WorkflowError("Sequence needs at least one step")
        for s in self.steps:
            _check_node(s, "Sequence step")

    def services(self) -> tuple[str, ...]:
        return tuple(s for step in self.steps for s in step.services())

    def children(self) -> tuple[WorkflowNode, ...]:
        return self.steps

    def _key(self) -> tuple:
        return ("sequence", tuple(s._key() for s in self.steps))

    def __repr__(self) -> str:
        return f"Sequence({list(self.steps)!r})"


class Parallel(WorkflowNode):
    """Sub-workflows invoked simultaneously; joins when all complete.

    This is the construct whose reduction yields the ``max`` in the
    eDiaMoND function ``D = X1 + X2 + max(X3 + X5, X4 + X6)``.
    """

    def __init__(self, branches: Iterable[WorkflowNode]):
        self.branches: tuple[WorkflowNode, ...] = tuple(branches)
        if len(self.branches) < 2:
            raise WorkflowError("Parallel needs at least two branches")
        for b in self.branches:
            _check_node(b, "Parallel branch")

    def services(self) -> tuple[str, ...]:
        return tuple(s for b in self.branches for s in b.services())

    def children(self) -> tuple[WorkflowNode, ...]:
        return self.branches

    def _key(self) -> tuple:
        return ("parallel", tuple(b._key() for b in self.branches))

    def __repr__(self) -> str:
        return f"Parallel({list(self.branches)!r})"


class Choice(WorkflowNode):
    """Exactly one branch executes, branch ``i`` with probability ``p_i``."""

    def __init__(self, branches: Iterable[WorkflowNode], probabilities: Seq[float]):
        self.branches = tuple(branches)
        self.probabilities = tuple(float(p) for p in probabilities)
        if len(self.branches) < 2:
            raise WorkflowError("Choice needs at least two branches")
        if len(self.probabilities) != len(self.branches):
            raise WorkflowError("one probability per Choice branch required")
        if (
            any(p < 0 for p in self.probabilities)
            or abs(sum(self.probabilities) - 1.0) > 1e-9
        ):
            raise WorkflowError(
                f"Choice probabilities must be nonnegative and sum to 1, "
                f"got {self.probabilities}"
            )
        for b in self.branches:
            _check_node(b, "Choice branch")

    def services(self) -> tuple[str, ...]:
        return tuple(s for b in self.branches for s in b.services())

    def children(self) -> tuple[WorkflowNode, ...]:
        return self.branches

    def _key(self) -> tuple:
        return ("choice", tuple(b._key() for b in self.branches), self.probabilities)

    def __repr__(self) -> str:
        return f"Choice({list(self.branches)!r}, p={list(self.probabilities)!r})"


class Loop(WorkflowNode):
    """Body repeats; after each iteration it continues with ``continue_prob``.

    The iteration count is geometric with at least one execution.
    """

    def __init__(self, body: WorkflowNode, continue_prob: float):
        _check_node(body, "Loop body")
        self.body = body
        self.continue_prob = float(continue_prob)
        if not 0.0 <= self.continue_prob < 1.0:
            raise WorkflowError(
                f"continue_prob must be in [0, 1), got {continue_prob}"
            )

    def services(self) -> tuple[str, ...]:
        return self.body.services()

    def children(self) -> tuple[WorkflowNode, ...]:
        return (self.body,)

    def _key(self) -> tuple:
        return ("loop", self.body._key(), self.continue_prob)

    def __repr__(self) -> str:
        return f"Loop({self.body!r}, continue_prob={self.continue_prob})"


def _check_node(node: object, what: str) -> None:
    if not isinstance(node, WorkflowNode):
        raise WorkflowError(f"{what} must be a WorkflowNode, got {type(node)!r}")


def sequence_of(*names: str) -> Sequence:
    """Convenience: ``sequence_of("a", "b")`` = Sequence of Activities."""
    return Sequence([Activity(n) for n in names])
