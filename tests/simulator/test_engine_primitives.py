"""Per-job primitives of the compiled engine: Choice draws, fault factors.

The engine maps each Choice uniform to a branch with a CDF computed once
and ``bisect_right``, the same search ``Generator.choice(n, p=p)`` does,
and it looks up each service's fault windows once per run instead of
building the active set per job.  Both must be bit-identical to the
NumPy and per-job forms.
"""

from bisect import bisect_right

import numpy as np
import pytest

from repro.simulator.engine import _choice_cdf
from repro.simulator.faults import Degradation, FaultSchedule, combined_factor

N_DRAWS = 10_000

CHOICE_PROBABILITIES = {
    "zero_branch": [0.2, 0.0, 0.5, 0.3],
    "zero_ends": [0.0, 0.6, 0.4, 0.0],
    # Sums to 0.9999999999999999: 1 only within tolerance.
    "tenths": [0.1] * 10,
    # Sums to 1 + 4e-10, inside both Choice's and numpy's tolerance.
    "over_one": [0.25, 0.25, 0.5 + 4e-10],
    "two_branch": [0.7, 0.3],
}


@pytest.mark.parametrize(
    "p", CHOICE_PROBABILITIES.values(), ids=list(CHOICE_PROBABILITIES)
)
@pytest.mark.parametrize("seed", [0, 20260808])
def test_choice_cdf_draw_equals_generator_choice(p, seed):
    cdf = _choice_cdf(p)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = [bisect_right(cdf, ours.random()) for _ in range(N_DRAWS)]
    expected = [int(theirs.choice(len(p), p=p)) for _ in range(N_DRAWS)]
    assert drawn == expected
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert not {i for i, pi in enumerate(p) if pi == 0.0} & set(drawn)


def product_over_active(schedule, service, t):
    factor = 1.0
    for d in schedule.active(service, t):
        factor *= d.factor
    return factor


def test_factor_at_equals_product_over_active_windows():
    # Factors that are inexact in binary, so multiplication order shows.
    schedule = FaultSchedule(
        (
            Degradation("a", 10.0, 20.0, 1.1),
            Degradation("a", 15.0, 30.0, 2.7),  # overlaps the first
            Degradation("a", 12.0, 18.0, 0.3),  # inside both
            Degradation("b", 0.0, 5.0, 3.3),
            Degradation("b", 5.0, 9.0, 1.7),  # back-to-back at 5.0
            Degradation("b", 9.0, 9.5, 4.1),  # and again at 9.0
        )
    )
    times = sorted(
        {float(t) for t in np.linspace(-1.0, 31.0, 257)}
        | {b for d in schedule.degradations for b in (d.start, d.end)}
    )
    for service in ("a", "b", "c"):
        for t in times:
            expected = product_over_active(schedule, service, t)
            assert schedule.factor_at(service, t) == expected
            assert combined_factor(schedule.for_service(service), t) == expected
    assert schedule.factor_at("a", 16.0) == 1.1 * 2.7 * 0.3
    assert schedule.factor_at("b", 5.0) == 1.7  # never double-applied
    assert schedule.factor_at("b", 9.0) == 4.1
    assert schedule.for_service("c") == ()
