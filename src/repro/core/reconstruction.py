"""Periodic model (re)construction — Section 2's scheme.

Two equations govern when models are rebuilt and from how much data:

- Eq. 1: ``W = K · T_CON`` — the sliding data window spans the current
  construction interval plus ``K − 1`` previous ones, where ``K`` is the
  *Environmental Correlation Metric* (how often autonomic actions
  decorrelate the environment from its past).
- Eq. 2: ``T_CON = α_model · T_DATA`` — the construction interval is a
  multiple of the data-collection interval; ``K · α_model`` is the
  number of data points available to infer the model.

:class:`ModelReconstructor` runs the scheme: data points stream in, every
``T_CON`` the model is rebuilt from the last ``W`` worth of points, and
each rebuild is checked for *feasibility* (construction must finish
before the next rebuild is due — the constraint NRT-BN violates beyond
~60 services in Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.bn.data import Dataset
from repro.exceptions import SchedulingError


@dataclass(frozen=True)
class ReconstructionSchedule:
    """The (K, α_model, T_DATA) configuration of Eqs. 1–2."""

    t_data: float
    alpha_model: int
    k: int

    def __post_init__(self) -> None:
        if not self.t_data > 0:
            raise SchedulingError(f"T_DATA must be > 0, got {self.t_data}")
        if self.alpha_model < 1:
            raise SchedulingError(f"alpha_model must be >= 1, got {self.alpha_model}")
        if self.k < 1:
            raise SchedulingError(f"K must be >= 1, got {self.k}")

    @property
    def t_con(self) -> float:
        """Eq. 2: model construction interval ``T_CON = α_model · T_DATA``."""
        return self.alpha_model * self.t_data

    @property
    def window(self) -> float:
        """Eq. 1: sliding data window ``W = K · T_CON``."""
        return self.k * self.t_con

    @property
    def n_points(self) -> int:
        """Data points available per construction: ``K · α_model``."""
        return self.k * self.alpha_model

    @classmethod
    def from_training_size(
        cls, n_points: int, k: int, t_data: float
    ) -> "ReconstructionSchedule":
        """Invert ``n_points = K · α_model`` (the paper's Fig. 3 sweep
        varies training size as 36 … 1080 with K = 3 fixed)."""
        if n_points % k != 0:
            raise SchedulingError(
                f"n_points={n_points} not divisible by K={k}"
            )
        return cls(t_data=t_data, alpha_model=n_points // k, k=k)


@dataclass
class RebuildEvent:
    """One model reconstruction in the periodic scheme."""

    at_time: float
    n_points: int
    model: object
    construction_seconds: float
    feasible: bool


@dataclass
class ModelReconstructor:
    """Streams data points and rebuilds the model every ``T_CON``.

    ``builder`` maps a training :class:`Dataset` to any model object
    exposing ``report.construction_seconds`` (both :class:`~repro.core.
    kertbn.KERTBN` and :class:`~repro.core.nrtbn.NRTBN` do).
    """

    schedule: ReconstructionSchedule
    builder: Callable[[Dataset], object]
    _buffer: "Dataset | None" = field(default=None, repr=False)
    _buffer_times: list = field(default_factory=list, repr=False)
    history: list = field(default_factory=list)

    def ingest(self, points: Dataset, start_time: float) -> None:
        """Append data points reported from ``start_time`` on, one per
        ``T_DATA``."""
        times = [start_time + i * self.schedule.t_data for i in range(points.n_rows)]
        if self._buffer is None:
            self._buffer = points
        else:
            if self._buffer.columns != points.columns:
                raise SchedulingError("ingested points have mismatched columns")
            self._buffer = Dataset.concat([self._buffer, points])
        self._buffer_times.extend(times)
        if sorted(self._buffer_times) != self._buffer_times:
            raise SchedulingError("data points must arrive in time order")

    def window_at(self, now: float) -> Dataset:
        """The Eq.-1 sliding window: points in ``(now - W, now]``."""
        if self._buffer is None:
            raise SchedulingError("no data ingested")
        lo = now - self.schedule.window
        idx = [i for i, t in enumerate(self._buffer_times) if lo < t <= now]
        if not idx:
            raise SchedulingError(f"window at t={now} contains no data")
        import numpy as np

        return self._buffer.rows(np.asarray(idx))

    def rebuild(self, now: float) -> RebuildEvent:
        """Rebuild from the current window and record feasibility.

        Feasible means construction finished within ``T_CON`` — a model
        that cannot be rebuilt before its next scheduled rebuild "may
        simply be impossible to build at short model construction
        intervals" (Section 4.2).
        """
        window = self.window_at(now)
        model = self.builder(window)
        secs = model.report.construction_seconds  # type: ignore[attr-defined]
        event = RebuildEvent(
            at_time=now,
            n_points=window.n_rows,
            model=model,
            construction_seconds=secs,
            feasible=secs <= self.schedule.t_con,
        )
        self.history.append(event)
        return event

    def run(self, data: Dataset, n_rebuilds: int) -> list[RebuildEvent]:
        """Convenience driver: stream ``data`` and rebuild every ``T_CON``."""
        if n_rebuilds < 1:
            raise SchedulingError("need >= 1 rebuild")
        needed = self.schedule.n_points + (n_rebuilds - 1) * self.schedule.alpha_model
        if data.n_rows < needed:
            raise SchedulingError(
                f"need >= {needed} points for {n_rebuilds} rebuilds, "
                f"got {data.n_rows}"
            )
        self.ingest(data, start_time=self.schedule.t_data)
        events = []
        for r in range(n_rebuilds):
            now = self.schedule.window + r * self.schedule.t_con
            events.append(self.rebuild(now))
        return events
