"""The agent-side unit of decentralized learning.

A :class:`LearningAgent` lives with one service.  It holds the service's
own elapsed-time column (collected locally by its monitoring point),
receives its KERT-BN parents' columns over the network, and — once all
parent columns have arrived — fits ``P(X_i | Φ(X_i))`` locally, timing
the fit.  Agents for root nodes (``Φ(X_i) = ∅``) need no communication
at all, exactly as Section 3.4 observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bn.cpd.base import CPD
from repro.bn.data import Dataset
from repro.bn.learning.mle import fit_linear_gaussian
from repro.decentralized.messaging import Message
from repro.exceptions import LearningError
from repro.utils.timing import timed

CpdFitter = Callable[[Dataset, str, tuple[str, ...]], CPD]


def linear_gaussian_fitter(min_variance: float = 1e-9) -> CpdFitter:
    """Continuous-model fitter (the Section-4 simulation study)."""

    def fit(data: Dataset, variable: str, parents: tuple[str, ...]) -> CPD:
        return fit_linear_gaussian(data, variable, parents, min_variance=min_variance)

    return fit


@dataclass
class LearningAgent:
    """Monitoring agent extended with local CPD learning.

    Lifecycle: :meth:`begin_round` clears the previous round's columns
    (a window's data must not silently stand in for the next window's),
    then :meth:`collect_local` / :meth:`receive` fill the round's
    columns, then :meth:`learn` fits.  Re-delivery of a column already
    received this round is counted as a duplicate and the latest copy
    wins — duplicates are a normal channel fault, not an error.
    """

    service: str
    parents: tuple[str, ...]
    fitter: CpdFitter
    _columns: dict = field(default_factory=dict, repr=False)
    last_fit_seconds: float = 0.0
    last_wait_seconds: float = 0.0  # delivery delay + retry backoff, this round
    n_received: int = 0
    n_duplicates: int = 0

    def __post_init__(self) -> None:
        self.parents = tuple(self.parents)
        if self.service in self.parents:
            raise LearningError(f"{self.service!r} cannot be its own parent")

    # ------------------------------------------------------------------ #
    # Data acquisition
    # ------------------------------------------------------------------ #

    def begin_round(self) -> None:
        """Drop the previous round's columns and reset wait accounting."""
        self._columns.clear()
        self.last_wait_seconds = 0.0

    def collect_local(self, column: np.ndarray) -> None:
        """Ingest the service's own monitoring-point measurements."""
        self._columns[self.service] = np.asarray(column, dtype=float)

    def receive(self, message: Message) -> None:
        """Ingest a parent's elapsed-time column from the network."""
        if message.recipient != self.service:
            raise LearningError(
                f"agent {self.service!r} received a message for "
                f"{message.recipient!r}"
            )
        if message.column not in self.parents:
            raise LearningError(
                f"agent {self.service!r} has no parent {message.column!r}"
            )
        if message.column in self._columns:
            self.n_duplicates += 1
        self.n_received += 1
        # Parents transmit concurrently, so the round's delivery wait is
        # the slowest message, not the sum.
        self.last_wait_seconds = max(self.last_wait_seconds, message.latency)
        self._columns[message.column] = np.asarray(message.payload, dtype=float)

    @property
    def ready(self) -> bool:
        """All required columns present?"""
        return self.service in self._columns and all(
            p in self._columns for p in self.parents
        )

    @property
    def missing(self) -> tuple[str, ...]:
        need = (self.service, *self.parents)
        return tuple(c for c in need if c not in self._columns)

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #

    def learn(self) -> CPD:
        """Fit this service's CPD from the local batch; records timing.

        This is the decentralizable unit: its input is exactly
        ``{X_i} ∪ Φ(X_i)``, nothing global.
        """
        if not self.ready:
            raise LearningError(
                f"agent {self.service!r} missing columns {self.missing}"
            )
        lengths = {c: v.size for c, v in self._columns.items()}
        if len(set(lengths.values())) != 1:
            raise LearningError(
                f"agent {self.service!r} has misaligned columns {lengths}"
            )
        local = Dataset(self._columns)
        cpd, secs = timed(self.fitter, local, self.service, self.parents)
        self.last_fit_seconds = secs
        return cpd
