"""``Histogram.observe_many`` against a loop of scalar ``observe`` calls.

The batch path bins with numpy and sums with one accumulate; the scalar
path bisects and adds one value at a time.  They share no code, so
every edge case (bound-exact values, overflow, infinities, NaN, empty
input) is compared on the full observable state.
"""

import math
import struct
import threading

import numpy as np
import pytest

from repro.obs.attribution import BUDGET_STREAM_BUCKETS
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, Histogram


def _bits(x):
    return struct.pack("<d", x)


def _state(h):
    return h.bucket_counts(), h.count, h.min, h.max


def _looped(values, buckets, start=()):
    h = Histogram("loop", buckets)
    for v in (*start, *values):
        h.observe(v)
    return h


def _batched(values, buckets, start=()):
    h = Histogram("batch", buckets)
    for v in start:
        h.observe(v)
    h.observe_many(values)
    return h


def _assert_same(values, buckets=DEFAULT_TIME_BUCKETS, start=()):
    ref = _looped(values, buckets, start)
    got = _batched(values, buckets, start)
    assert _state(got) == _state(ref)
    assert _bits(got.total) == _bits(ref.total)
    for q in (50.0, 95.0, 99.0):
        a, b = got.percentile(q), ref.percentile(q)
        assert a == b or (math.isnan(a) and math.isnan(b))


def test_bound_exact_values_land_in_the_same_bucket():
    bounds = list(DEFAULT_TIME_BUCKETS)
    _assert_same(bounds)
    _assert_same([np.nextafter(b, np.inf) for b in bounds])
    _assert_same([np.nextafter(b, -np.inf) for b in bounds])


def test_overflow_infinities_and_negatives():
    _assert_same([1e3, 50.0, 50.000001, np.inf, -np.inf, -1.0, 0.0, -0.0])
    _assert_same([np.inf])
    _assert_same([-np.inf, -np.inf])


def test_nan_goes_to_overflow_and_moves_neither_bound():
    _assert_same([np.nan])
    _assert_same([np.nan, 0.3, np.nan, 7.0])
    _assert_same([0.3, np.inf, np.nan, -np.inf], start=[0.01])


def test_empty_input_changes_nothing():
    _assert_same([])
    _assert_same([], start=[0.2, 3.0])
    h = Histogram("empty")
    h.observe_many(np.array([]))
    assert h.count == 0 and h.min is None and h.total == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_streams_sum_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    values = rng.lognormal(mean=0.0, sigma=2.0, size=5000)
    _assert_same(values, BUDGET_STREAM_BUCKETS)
    _assert_same(values, start=rng.uniform(0, 1, size=7).tolist())
    # Several batches in a row keep accumulating from the running total.
    ref = _looped(values, DEFAULT_TIME_BUCKETS)
    got = Histogram("chunks")
    for chunk in np.array_split(values, 13):
        got.observe_many(chunk)
    assert _state(got) == _state(ref)
    assert _bits(got.total) == _bits(ref.total)


def test_accepts_lists_and_2d_arrays():
    values = [[0.1, 2.0], [3e-5, 60.0]]
    _assert_same(np.ravel(values))
    got = Histogram("2d")
    got.observe_many(np.array(values))
    assert _state(got) == _state(_looped(np.ravel(values), DEFAULT_TIME_BUCKETS))


def test_threads_balance():
    """8 threads mixing batch and scalar observations lose nothing.

    Values are multiples of 1/8, so every partial sum is exact and the
    total does not depend on the order the threads interleave in.
    """
    rng = np.random.default_rng(7)
    per_thread = [rng.integers(0, 4000, size=3000) / 8.0 for _ in range(8)]
    h = Histogram("hammered")

    def work(k):
        values = per_thread[k]
        for chunk in np.array_split(values[:2000], 40):
            h.observe_many(chunk)
        for v in values[2000:]:
            h.observe(float(v))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    everything = np.concatenate(per_thread)
    ref = _looped(everything, DEFAULT_TIME_BUCKETS)
    assert _state(h) == _state(ref)
    assert h.total == float(everything.sum()) == ref.total
