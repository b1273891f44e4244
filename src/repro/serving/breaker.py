"""Circuit breaking and admission control for the serving path.

Both mechanisms are *deterministic* so chaos tests replay exactly:

- :class:`CircuitBreaker` counts consecutive failures per backend and
  measures its cooldown in **calls**, not wall-clock seconds — a tripped
  backend is skipped for the next ``cooldown`` attempts, then allowed
  one half-open trial;
- :class:`AdmissionController` sheds load from a *seeded* RNG once the
  recent overload fraction (deadline overruns, total failures) crosses a
  threshold, so overload degrades to a bounded, reproducible trickle of
  refusals instead of an unbounded queue.

Both are **thread-safe**: every state transition happens under a
per-instance lock, so concurrent callers of one
:class:`~repro.serving.server.ModelServer` cannot corrupt breaker state
or lose admission-window outcomes.  Under threads the
*interleaving* of RNG draws depends on scheduling, so cross-thread runs
are deterministic in their invariants (counts always balance) rather
than in their exact shed pattern; single-threaded runs replay exactly
as before.
"""

from __future__ import annotations

import threading

from repro.exceptions import ServingError
from repro.obs.runtime import OBS as _OBS
from repro.utils.rng import ensure_rng

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Count-based breaker guarding one backend tier.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` refuses the next ``cooldown`` calls, then lets a
    single half-open probe through.  A successful probe closes the
    circuit; a failed one re-opens it for a fresh cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: int = 10,
        name: "str | None" = None,
    ):
        if failure_threshold < 1:
            raise ServingError("failure_threshold must be >= 1")
        if cooldown < 1:
            raise ServingError("cooldown must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = int(cooldown)
        #: Label used in observability metric names (falls back to
        #: ``"breaker"`` for anonymous instances).
        self.name = str(name) if name is not None else "breaker"
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._cooldown_remaining = 0
        self.n_trips = 0
        self.n_refused = 0

    @property
    def state(self) -> str:
        return self._state

    def _transition(self, new_state: str) -> None:
        """State change + observability: every transition is counted and
        the per-breaker ``open`` gauge tracks 1 while not CLOSED.
        Callers must hold ``self._lock``."""
        old, self._state = self._state, new_state
        if old != new_state and _OBS.enabled:
            m = _OBS.metrics
            m.counter("serving.breaker.transitions").inc()
            m.counter(f"serving.breaker.{self.name}.to_{new_state}").inc()
            m.gauge(f"serving.breaker.{self.name}.open").set(
                0.0 if new_state == CLOSED else 1.0
            )

    def allow(self) -> bool:
        """May the guarded backend be attempted right now?"""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._cooldown_remaining > 0:
                    self._cooldown_remaining -= 1
                    self.n_refused += 1
                    return False
                self._transition(HALF_OPEN)
                return True
            # HALF_OPEN: exactly one probe is in flight per cooldown
            # lapse; further callers wait for its outcome.
            self.n_refused += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            # Call out only on a real change: a call made while the lock
            # is held lets the interpreter switch threads inside it (see
            # :meth:`AdmissionController.admit`).
            if self._state != CLOSED:
                self._transition(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if (
                self._state == HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(OPEN)
                self._cooldown_remaining = self.cooldown
                self._consecutive_failures = 0
                self.n_trips += 1


class AdmissionController:
    """Deterministic, seeded load shedding.

    Tracks the last ``window`` query outcomes (``True`` = overload
    signal: deadline overrun or every-tier failure).  When the overload
    fraction reaches ``overload_threshold``, each incoming query is shed
    with probability ``shed_fraction`` drawn from the seeded RNG —
    deterministic under a fixed seed, testable, and bounded (admitted
    work keeps flowing at ``1 - shed_fraction``).
    """

    def __init__(
        self,
        window: int = 50,
        overload_threshold: float = 0.5,
        shed_fraction: float = 0.5,
        rng=None,
    ):
        if window < 1:
            raise ServingError("window must be >= 1")
        if not 0.0 < overload_threshold <= 1.0:
            raise ServingError("overload_threshold must be in (0, 1]")
        if not 0.0 <= shed_fraction <= 1.0:
            raise ServingError("shed_fraction must be in [0, 1]")
        self.window = int(window)
        self.overload_threshold = float(overload_threshold)
        self.shed_fraction = float(shed_fraction)
        self.rng = ensure_rng(rng)
        self._lock = threading.Lock()
        # Ring buffer of the last ``window`` overload signals, with its
        # fill level and the count of ``True`` in it kept in step, so a
        # decision or a record costs O(1) and makes no call under the
        # lock (see :meth:`admit`).
        self._outcomes = [False] * self.window
        self._next = 0
        self._n_outcomes = 0
        self._n_overloaded = 0
        self.n_shed = 0
        self.n_admitted = 0

    def _overload_fraction_locked(self) -> float:
        if not self._n_outcomes:
            return 0.0
        return self._n_overloaded / self._n_outcomes

    @property
    def overload_fraction(self) -> float:
        with self._lock:
            return self._overload_fraction_locked()

    @property
    def overloaded(self) -> bool:
        with self._lock:
            return (
                self._n_outcomes >= self.window
                and self._overload_fraction_locked() >= self.overload_threshold
            )

    def admit(self) -> bool:
        """Admission decision for one incoming query."""
        with self._lock:
            # Inline, not through the helper: a call made while the lock
            # is held lets the interpreter switch threads inside it, and
            # under contention the other threads then queue on the lock.
            overloaded = (
                self._n_outcomes >= self.window
                and self._n_overloaded / self.window >= self.overload_threshold
            )
            if overloaded and self.rng.random() < self.shed_fraction:
                self.n_shed += 1
                return False
            self.n_admitted += 1
            return True

    def record(self, overloaded: bool) -> None:
        """Report one completed query's overload signal."""
        overloaded = bool(overloaded)
        with self._lock:
            i = self._next
            self._n_overloaded += overloaded - self._outcomes[i]
            self._outcomes[i] = overloaded
            self._next = (i + 1) % self.window
            if self._n_outcomes < self.window:
                self._n_outcomes += 1
