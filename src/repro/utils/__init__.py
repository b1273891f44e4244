"""Shared utilities: RNG plumbing, timers, statistics and validation."""

from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer, timed
from repro.utils.validation import require

__all__ = [
    "ensure_rng",
    "Timer",
    "timed",
    "require",
]
