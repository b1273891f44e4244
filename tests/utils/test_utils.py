"""Utility-layer tests: rng plumbing, timers, stats, validation."""

import time

import numpy as np
import pytest

from repro.utils.rng import ensure_rng
from repro.utils.stats import empirical_tail_probability, relative_error
from repro.utils.timing import Timer, timed
from repro.utils.validation import require


# --------------------------------------------------------------------- #
# rng
# --------------------------------------------------------------------- #


def test_ensure_rng_from_seed_deterministic():
    a = ensure_rng(42).random(5)
    b = ensure_rng(42).random(5)
    np.testing.assert_array_equal(a, b)


def test_ensure_rng_passthrough():
    g = np.random.default_rng(0)
    assert ensure_rng(g) is g


def test_ensure_rng_none_gives_generator():
    assert isinstance(ensure_rng(None), np.random.Generator)


def test_ensure_rng_rejects_garbage():
    with pytest.raises(TypeError):
        ensure_rng("seed")


# --------------------------------------------------------------------- #
# timing
# --------------------------------------------------------------------- #


def test_timer_accumulates():
    t = Timer()
    with t:
        time.sleep(0.01)
    first = t.elapsed
    with t:
        time.sleep(0.01)
    assert t.elapsed > first >= 0.009


def test_timer_not_reentrant():
    t = Timer()
    with t:
        with pytest.raises(RuntimeError):
            t.__enter__()


def test_timer_reset():
    t = Timer()
    with t:
        pass
    t.reset()
    assert t.elapsed == 0.0


def test_timed_returns_result_and_seconds():
    out, secs = timed(sum, range(100))
    assert out == 4950
    assert secs >= 0


# --------------------------------------------------------------------- #
# stats
# --------------------------------------------------------------------- #


def test_empirical_tail():
    s = np.array([1.0, 2.0, 3.0, 4.0])
    assert empirical_tail_probability(s, 2.5) == 0.5
    with pytest.raises(ValueError):
        empirical_tail_probability(np.array([]), 1.0)


def test_relative_error_cases():
    assert relative_error(1.2, 1.0) == pytest.approx(0.2)
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(0.5, 0.0) == float("inf")


# --------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------- #


def test_require():
    require(True, "fine")
    with pytest.raises(ValueError):
        require(False, "boom")
    with pytest.raises(KeyError):
        require(False, "boom", exc=KeyError)
