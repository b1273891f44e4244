"""Circuit breaker and admission control: deterministic state machines."""

from collections import deque

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.serving.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionController,
    CircuitBreaker,
)


def test_breaker_validation():
    with pytest.raises(ServingError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ServingError):
        CircuitBreaker(cooldown=0)


def test_breaker_opens_after_threshold_consecutive_failures():
    b = CircuitBreaker(failure_threshold=3, cooldown=5)
    b.record_failure()
    b.record_failure()
    assert b.state == CLOSED and b.allow()
    b.record_failure()
    assert b.state == OPEN and b.n_trips == 1


def test_success_resets_consecutive_count():
    b = CircuitBreaker(failure_threshold=2, cooldown=5)
    b.record_failure()
    b.record_success()
    b.record_failure()
    assert b.state == CLOSED  # never two in a row


def test_cooldown_then_half_open_probe():
    b = CircuitBreaker(failure_threshold=1, cooldown=3)
    b.record_failure()
    assert b.state == OPEN
    # refused for exactly `cooldown` calls
    assert [b.allow() for _ in range(3)] == [False, False, False]
    # then one half-open probe is let through; concurrent calls are not
    assert b.allow() is True
    assert b.state == HALF_OPEN
    assert b.allow() is False
    # failed probe -> re-open for a fresh cooldown
    b.record_failure()
    assert b.state == OPEN and b.n_trips == 2
    assert not b.allow()


def test_successful_probe_closes():
    b = CircuitBreaker(failure_threshold=1, cooldown=1)
    b.record_failure()
    assert not b.allow()          # cooldown tick
    assert b.allow()              # half-open probe
    b.record_success()
    assert b.state == CLOSED and b.allow()


def test_admission_validation():
    with pytest.raises(ServingError):
        AdmissionController(window=0)
    with pytest.raises(ServingError):
        AdmissionController(overload_threshold=0.0)
    with pytest.raises(ServingError):
        AdmissionController(shed_fraction=1.5)


def test_admission_sheds_only_when_window_is_overloaded():
    ac = AdmissionController(
        window=10, overload_threshold=0.5, shed_fraction=1.0,
        rng=np.random.default_rng(0),
    )
    for _ in range(9):
        ac.record(True)
    assert not ac.overloaded          # window not yet full
    assert ac.admit()
    ac.record(True)
    assert ac.overloaded
    assert not ac.admit() and ac.n_shed == 1
    # recovery: healthy outcomes push the fraction back down
    for _ in range(6):
        ac.record(False)
    assert not ac.overloaded
    assert ac.admit()


def test_admission_window_slides_like_a_bounded_deque():
    """The ring buffer's running counts match a recount of the last
    ``window`` outcomes after every record, through many wrap-arounds."""
    ac = AdmissionController(window=7, overload_threshold=0.4)
    ref = deque(maxlen=7)
    signals = np.random.default_rng(3).random(100) < 0.4
    for signal in signals:
        ac.record(signal)
        ref.append(bool(signal))
        assert ac.overload_fraction == sum(ref) / len(ref)
        assert ac.overloaded == (len(ref) == 7 and sum(ref) / 7 >= 0.4)

def test_admission_is_deterministic_under_a_seed():
    def run():
        ac = AdmissionController(
            window=5, overload_threshold=0.5, shed_fraction=0.5,
            rng=np.random.default_rng(42),
        )
        for _ in range(5):
            ac.record(True)
        return [ac.admit() for _ in range(50)]

    assert run() == run()
    assert not all(run())  # some shed
    assert any(run())      # but not a full outage: work keeps trickling
