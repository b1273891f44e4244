"""The process-global observability switchboard.

Instrumented call sites throughout the codebase guard on
``OBS.enabled`` — a single attribute read — so the disabled cost on a
hot path is one branch (asserted < 5% of a ``query_batch`` call in
``tests/perf/test_obs_overhead.py``).  Everything heavier (counter
lookups, clock reads, span allocation) happens only when enabled.

Enable programmatically (:func:`enable` / :func:`disable`), or set the
``REPRO_OBS`` environment variable to a non-empty value other than
``0`` to come up enabled — that is how CI captures trace snapshots from
the chaos suites without touching test code.

Clocks are injectable for deterministic tests: ``enable(clock=fake)``
points both the metrics timestamps and the tracer at ``fake``.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = [
    "OBS",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "snapshot",
    "span",
]


class ObsState:
    """Singleton bundle: enable flag + registry + tracer + clock."""

    __slots__ = ("enabled", "clock", "metrics", "tracer")

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.enabled = False
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=clock)

    def configure(self, clock: Optional[Callable[[], float]] = None) -> None:
        """Swap the clock (tests); metric values are preserved."""
        if clock is not None:
            self.clock = clock
            self.tracer.clock = clock


#: The process-wide observability state.  Hot paths read
#: ``OBS.enabled`` directly; everything else should go through the
#: module-level helpers below.
OBS = ObsState()

if os.environ.get("REPRO_OBS", "0") not in ("", "0"):
    OBS.enabled = True


def enable(clock: Optional[Callable[[], float]] = None) -> None:
    """Turn instrumentation on (optionally with an injected clock)."""
    OBS.configure(clock=clock)
    OBS.enabled = True


def disable() -> None:
    """Turn instrumentation off; recorded state is kept until reset."""
    OBS.enabled = False


def is_enabled() -> bool:
    return OBS.enabled


def reset() -> None:
    """Zero all metrics and drop all spans (enable flag unchanged)."""
    OBS.metrics.reset()
    OBS.tracer.clear()


def snapshot() -> dict:
    """One JSON-ready dict: enable state, metrics, and span trees."""
    return {
        "enabled": OBS.enabled,
        "metrics": OBS.metrics.snapshot(),
        "trace": OBS.tracer.to_dict(),
    }


class _NullSpan:
    """Inert span handed out while observability is disabled."""

    __slots__ = ()

    def annotate(self, **fields: object) -> "_NullSpan":
        return self

    def override_duration(self, seconds: float) -> None:
        return None


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullSpanContext()


def span(name: str):
    """``with span("..."):`` — a real tracer span when enabled, a
    shared no-op context otherwise (no allocation on the disabled
    path)."""
    if not OBS.enabled:
        return _NULL_CONTEXT
    return OBS.tracer.span(name)
