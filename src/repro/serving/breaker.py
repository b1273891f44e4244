"""Circuit breaking for the serving path.

:class:`CircuitBreaker` counts consecutive failures per backend and
measures its cooldown in **calls**, not wall-clock seconds — a tripped
backend is skipped for the next ``cooldown`` attempts, then allowed one
half-open trial — so chaos tests replay exactly.

It is **thread-safe**: every state transition happens under a
per-instance lock, so concurrent callers of one
:class:`~repro.serving.server.ModelServer` cannot corrupt breaker state.
The two calls a healthy tier makes per query skip the lock while the
breaker is closed and nothing would change: :meth:`~CircuitBreaker.allow`
reads ``CLOSED`` and :meth:`~CircuitBreaker.record_success` reads no
failures, then ``CLOSED``.  A transition racing such a read ends where
the locked code would, had the reader taken the lock first.
"""

from __future__ import annotations

import threading

from repro.exceptions import ServingError
from repro.obs.runtime import OBS as _OBS

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
        if self._state == CLOSED:
            return True
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
        # Failures first: a trip zeroes them after leaving CLOSED, so a
        # zero then CLOSED means no trip has started since either read.
        if self._consecutive_failures == 0 and self._state == CLOSED:
            return
        with self._lock:
            self._consecutive_failures = 0
            # Call out only on a real change: a call made while the lock
            # is held lets the interpreter switch threads inside it, and
            # under contention the other threads then queue on the lock.
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
