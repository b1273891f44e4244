"""Circuit breaker: a deterministic, count-based state machine."""

import pytest

from repro.exceptions import ServingError
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


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
