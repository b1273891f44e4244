"""Host-speed scaling for the perf tests' wall-clock bounds.

Each bound is stated for the benchmark's nominal host and scaled by the
benchmark's reference job (``perfbench/reference.py``) timed five times on
each side of the measurement, so a loaded host raises the bound instead
of failing the test.
"""

import importlib.util
import os

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
