"""In-memory span recorder wrapped around the program's public calls.

Only the traced run installs it.  :func:`patched` swaps each named
attribute (a class method or a module-level function, looked up where
the caller resolves it) for a wrapper that opens a span, and restores
the originals on exit, so the program's own code is never edited.

Each span is keyed by ``(root, parent, name)``: ``root`` is the span
that opened the request (one MAPE cycle, one query, one swap), so a
layer called from two places is reported separately.  A span's self
time is its duration minus the time its direct children cover; the
workload is single-threaded and synchronous, so children never
overlap and no layer waits in a queue.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

#: Raw spans are kept for this many requests; aggregates cover all.
KEEP_ROOTS = 200


class Tracer:
    """Span stack plus per-key aggregates; raw spans for the first roots."""

    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.spans: list = []
        self._stack: list = []
        self._roots = 0
        self._next_id = 0

    # -- recording ------------------------------------------------------ #

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        return traced

    def open(self, name: str) -> None:
        if not self._stack:
            self._roots += 1
        self._next_id += 1
        # [name, start, child seconds, span id]
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def close(self) -> None:
        end = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0][0] if self._stack else name
        key = (root, parent[0] if parent else None, name)
        self.self_s[key] += duration - child_s
        self.calls[key] += 1
        if parent is not None:
            parent[2] += duration
        if self._roots <= KEEP_ROOTS:
            self.spans.append(
                {
                    "root": self._roots,
                    "id": span_id,
                    "parent": parent[3] if parent else None,
                    "name": name,
                    "start": start,
                    "end": end,
                }
            )

    # -- reading -------------------------------------------------------- #

    def _select(self, name, root=None, parent=None):
        return [
            key
            for key in self.calls
            if key[2] == name
            and (root is None or key[0] == root)
            and (parent is None or key[1] == parent)
        ]

    def n_calls(self, name, root=None, parent=None) -> int:
        return sum(self.calls[k] for k in self._select(name, root, parent))

    def self_seconds(self, name, root=None, parent=None) -> float:
        return sum(self.self_s[k] for k in self._select(name, root, parent))

    def mean_self(self, name, root=None, parent=None) -> float:
        """Mean self seconds per call; 0.0 when the layer never ran."""
        n = self.n_calls(name, root, parent)
        return self.self_seconds(name, root, parent) / n if n else 0.0

    def write(self, path: str) -> None:
        """Write the kept raw spans, one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Wrap every ``(owner, attribute, span name)`` in ``targets``."""
    saved = []
    try:
        for owner, attr, name in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
