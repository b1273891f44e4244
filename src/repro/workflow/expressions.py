"""Vectorized expression trees over named variables.

The Cardoso reduction of a workflow produces one of these trees; it is
the deterministic ``f`` of the paper's Eq. 4.  Expressions are callables
mapping ``{name: (n,) ndarray}`` to an ``(n,)`` ndarray, so evaluating
``f`` over a whole monitoring window is a handful of NumPy ufunc calls —
no per-row Python loop.
"""

from __future__ import annotations

import abc
from typing import Iterable, Mapping

import numpy as np

from repro.exceptions import WorkflowError


class Expression(abc.ABC):
    """A deterministic function of named variables."""

    @property
    @abc.abstractmethod
    def inputs(self) -> frozenset[str]:
        """Names of the variables the expression reads."""

    @abc.abstractmethod
    def __call__(self, values: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorized evaluation."""

    @abc.abstractmethod
    def to_string(self) -> str:
        """Human-readable form, e.g. ``X1 + max(X2, X3)``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self.to_string()}>"

    # Operator sugar keeps hand-built expressions in tests readable.
    def __add__(self, other: "Expression") -> "Sum":
        return Sum([self, other])


def _as_array(values: Mapping[str, np.ndarray], name: str) -> np.ndarray:
    if name not in values:
        raise WorkflowError(f"expression input {name!r} missing from values")
    return np.asarray(values[name], dtype=float)


class Var(Expression):
    """A single named variable."""

    def __init__(self, name: str):
        self.name = str(name)

    @property
    def inputs(self) -> frozenset[str]:
        return frozenset([self.name])

    def __call__(self, values: Mapping[str, np.ndarray]) -> np.ndarray:
        return _as_array(values, self.name)

    def to_string(self) -> str:
        return self.name


class Sum(Expression):
    """Sum of sub-expressions — sequential composition."""

    def __init__(self, terms: Iterable[Expression]):
        self.terms = tuple(terms)
        if not self.terms:
            raise WorkflowError("Sum needs at least one term")

    @property
    def inputs(self) -> frozenset[str]:
        return frozenset().union(*(t.inputs for t in self.terms))

    def __call__(self, values: Mapping[str, np.ndarray]) -> np.ndarray:
        total = self.terms[0](values)
        for t in self.terms[1:]:
            total = total + t(values)
        return total

    def to_string(self) -> str:
        return " + ".join(t.to_string() for t in self.terms)


class Max(Expression):
    """Maximum of sub-expressions — parallel (AND-join) composition."""

    def __init__(self, terms: Iterable[Expression]):
        self.terms = tuple(terms)
        if len(self.terms) < 2:
            raise WorkflowError("Max needs at least two terms")

    @property
    def inputs(self) -> frozenset[str]:
        return frozenset().union(*(t.inputs for t in self.terms))

    def __call__(self, values: Mapping[str, np.ndarray]) -> np.ndarray:
        result = self.terms[0](values)
        for t in self.terms[1:]:
            result = np.maximum(result, t(values))
        return result

    def to_string(self) -> str:
        return "max(" + ", ".join(t.to_string() for t in self.terms) + ")"


def simplify(expr: Expression) -> Expression:
    """Flatten nested Sums/Maxes and collapse single-term ones.

    Keeps the printable form close to the paper's
    ``X1 + X2 + max(X3 + X5, X4 + X6)``.
    """
    if isinstance(expr, Sum):
        flat: list[Expression] = []
        for t in (simplify(t) for t in expr.terms):
            if isinstance(t, Sum):
                flat.extend(t.terms)
            else:
                flat.append(t)
        return flat[0] if len(flat) == 1 else Sum(flat)
    if isinstance(expr, Max):
        flat = []
        for t in (simplify(t) for t in expr.terms):
            if isinstance(t, Max):
                flat.extend(t.terms)
            else:
                flat.append(t)
        return flat[0] if len(flat) == 1 else Max(flat)
    return expr
