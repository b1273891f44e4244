"""Host-speed reference: a fixed job timed between the measured operations.

The shared hosts this benchmark runs on drift in speed by 20-40 % over
minutes, and switch between faster and slower stretches every second or
so: far more than any bound a regression gate can use.  Each gated
operation time is therefore divided by the duration of this job timed
next to it in the same process: a slow stretch slows both alike.  The
job is the benchmark's own code, a mix of the interpreter work (dict
updates, a loop) and small numpy calls the program itself is made of,
so no change to the program can move it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

_MATRIX = np.random.default_rng(0).random((8, 8))
#: The reference job's median duration on the host the benchmark was
#: written on (a shared 2-core x86 VM).  A set-up time in reference-job
#: units times this is the set-up time in seconds on that host.
NOMINAL_JOB_S = 4.0e-4


def job_seconds() -> float:
    """Run the reference job once and return its duration."""
    start = time.perf_counter()
    acc: dict = {}
    for i in range(600):
        acc[i % 37] = acc.get(i % 37, 0.0) + i * 0.5
    x = _MATRIX
    for _ in range(40):
        x = np.tanh(x @ _MATRIX) + x.sum(axis=0)
    return time.perf_counter() - start


def local_reference(ref_s, n_ops: int, every: int, width: int = 5) -> np.ndarray:
    """The reference duration in force at each of ``n_ops`` operations.

    ``ref_s[k]`` was timed just before operation ``k * every``.  Each
    operation gets the median of the ``width`` timings nearest to it, so
    one noisy timing does not set the scale of its neighbours.
    """
    ref = np.asarray(ref_s, dtype=float)
    padded = np.pad(ref, width // 2, mode="edge")
    local = np.median(np.lib.stride_tricks.sliding_window_view(padded, width), axis=1)
    return local[np.minimum(np.arange(n_ops) // every, ref.size - 1)]


def host_seconds(fn):
    """Run ``fn()`` between two groups of five reference jobs.

    Returns ``fn``'s result, its duration scaled to the nominal host
    (raw duration / median reference duration x ``NOMINAL_JOB_S``),
    and its raw duration in seconds.  A full garbage collection first
    keeps the collector's periodic passes from landing in some calls
    and not in others.
    """
    gc.collect()
    around = [job_seconds() for _ in range(5)]
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    around += [job_seconds() for _ in range(5)]
    return result, raw / float(np.median(around)) * NOMINAL_JOB_S, raw
