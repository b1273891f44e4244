"""Host-speed scaling for the perf tests' wall-clock bounds.

Each bound is stated for the benchmark's nominal host and scaled by the
benchmark's reference job (``perfbench/reference.py``), so a loaded host
raises the bound instead of failing the test.  :func:`host_bound` times
the job five times on each side of the measurement;
:func:`interleaved_bound` times it next to every repetition of a short
call, so a load burst during the calls raises the bound too.
"""

import importlib.util
import os
import time

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "_perfbench_reference",
    os.path.join(os.path.dirname(__file__), "..", "..", "perfbench", "reference.py"),
)
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)


def host_bound(measure, nominal_s):
    """Return ``(measure(), bound)``: ``nominal_s`` times the median of the
    ten reference-job timings around the call over ``NOMINAL_JOB_S``."""
    around = [reference.job_seconds() for _ in range(5)]
    result = measure()
    around += [reference.job_seconds() for _ in range(5)]
    return result, nominal_s * float(np.median(around)) / reference.NOMINAL_JOB_S


def interleaved_bound(call, nominal_s, reps=7):
    """Time ``call()`` ``reps`` times, each between two reference jobs.

    Each repetition is scaled by the mean of its own two jobs.  Returns
    ``(seconds, bound)`` of the repetition that ran fastest against its
    jobs: its duration and ``nominal_s`` times its jobs' mean over
    ``NOMINAL_JOB_S``.
    """
    best = None
    for _ in range(reps):
        before = reference.job_seconds()
        start = time.perf_counter()
        call()
        seconds = time.perf_counter() - start
        job = 0.5 * (before + reference.job_seconds())
        if best is None or seconds / job < best[0] / best[1]:
            best = (seconds, job)
    seconds, job = best
    return seconds, nominal_s * job / reference.NOMINAL_JOB_S
