"""Lightweight tracing: parent-linked span trees with wall time.

The tracing half of :mod:`repro.obs`.  A :class:`Tracer` maintains a
per-thread stack of open :class:`Span` objects; ``with tracer.span(...)``
nests automatically, exceptions unwind cleanly (the span is marked
``error`` and still closed), and finished trees export through one
serializer, :meth:`Span.to_dict`: what ``--trace-out`` writes and what
:func:`repro.obs.dashboard.render_terminal` draws as a tree.  Readers
walk :attr:`Tracer.roots` and each span's ``children``.

:meth:`Span.override_duration` exists for the decentralized
coordinator: its agents run *conceptually* concurrently but are
simulated in-process, so their spans carry the paper's accounted
per-agent cost (fit + delivery wait) and the round span carries the
Sec.-3.4 ``max``-over-agents time rather than the sequential wall clock.

Clocks are injectable (``Tracer(clock=...)``) so tests are
deterministic.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One timed operation, linked to its parent and children."""

    __slots__ = (
        "name",
        "parent",
        "children",
        "start",
        "end",
        "status",
        "error",
        "extra",
        "_duration_override",
    )

    def __init__(self, name: str, parent: Optional["Span"], start: float):
        self.name = name
        self.parent = parent
        self.children: List[Span] = []
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None
        self.extra: Dict[str, Any] = {}
        self._duration_override: Optional[float] = None
        if parent is not None:
            parent.children.append(self)

    @property
    def duration(self) -> float:
        """Elapsed seconds (overridden > measured > 0 while open)."""
        if self._duration_override is not None:
            return self._duration_override
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None or self._duration_override is not None

    def override_duration(self, seconds: float) -> None:
        """Carry an *accounted* duration instead of the measured one
        (used for simulated concurrency — see the module docstring)."""
        if seconds < 0:
            raise ValueError(f"span duration cannot be negative: {seconds}")
        self._duration_override = float(seconds)

    def annotate(self, **fields: Any) -> "Span":
        """Attach key→value context to the span; returns ``self``."""
        self.extra.update(fields)
        return self

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_seconds": self.duration,
            "status": self.status,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.extra:
            out["extra"] = dict(self.extra)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class Tracer:
    """Collects span trees; one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._roots: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span lifecycle ------------------------------------------------ #

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a child of the current span (or a new root)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(str(name), parent, self.clock())
        if parent is None:
            with self._lock:
                self._roots.append(sp)
        stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.status = "error"
            sp.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            sp.end = self.clock()
            if stack and stack[-1] is sp:
                stack.pop()

    def record_span(
        self,
        name: str,
        seconds: float,
        status: str = "ok",
        **extra: Any,
    ) -> Span:
        """Append an already-finished span (child of the current one).

        This is how accounted — rather than measured — costs enter the
        tree: per-agent fit times, simulated channel waits.
        """
        now = self.clock()
        sp = Span(str(name), self.current, now)
        sp.end = now
        sp.override_duration(seconds)
        sp.status = str(status)
        sp.extra.update(extra)
        if sp.parent is None:
            with self._lock:
                self._roots.append(sp)
        return sp

    # -- read side ------------------------------------------------------ #

    @property
    def roots(self) -> List[Span]:
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots = []
        self._local = threading.local()

    # -- exporters ------------------------------------------------------ #

    def to_dict(self) -> list:
        return [sp.to_dict() for sp in self.roots]
