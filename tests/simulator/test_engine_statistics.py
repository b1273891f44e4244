"""Layout-free statistics of the engine's draws.

The oracle tests pin one RNG layout bit for bit; these hold for any
layout, so they also guard the next change to it.  With queueing, host
contention, faults, demand and upstream coupling all switched off, the
elapsed time of every invocation is one base delay draw, every Choice
takes branch ``k`` with probability ``p_k`` and every Loop body runs a
geometric number of times.  So, on corpus cells of the mixed family:

- per service, the mean elapsed time per invocation lies within ``Z``
  standard errors of ``delay.mean`` (CLT, with the exact variance of
  the G/G/1 or M/M/k sojourn);
- per Choice, each branch's visit share lies within ``Z`` binomial
  standard errors of its probability;
- per Loop, the mean number of body runs lies within ``Z`` standard
  errors of the geometric mean ``1 / (1 - continue_prob)``.

``Z = 4.5`` is a two-sided tail of 7e-6 per check, so the ~200
checks below fail by chance with probability under 0.2 %.  Counts below
``MIN_N`` are too small for the normal approximation and are skipped.
"""

import numpy as np
import pytest

from repro.corpus.generate import build_scenario
from repro.corpus.spec import ScenarioSpec
from repro.simulator.delays import GG1, MMk
from repro.simulator.engine import Engine
from repro.simulator.service import ServiceSpec
from repro.workflow.constructs import Activity, Choice, Loop, Parallel, Sequence

Z = 4.5
MIN_N = 50
N_TRANSACTIONS = 3000


def sojourn_variance(delay) -> float:
    """Var of ``service + B·wait``, with ``B ~ Bernoulli(q)``, ``wait ~ Exp(m)``."""
    if isinstance(delay, GG1):
        var_service = delay.scv_service * delay.service_mean**2
        q, m = delay.utilization, delay.wait_mean / delay.utilization
    elif isinstance(delay, MMk):
        var_service = delay.service_mean**2
        q, m = delay.p_wait, delay.conditional_wait_mean
    else:
        raise TypeError(type(delay))
    return var_service + 2.0 * q * m * m - (q * m) ** 2


def walk_with_loop_flag(node, in_loop=False):
    """``(node, inside a Loop)`` for every node of the workflow."""
    yield node, in_loop
    for child in node.children():
        yield from walk_with_loop_flag(child, in_loop or isinstance(node, Loop))


def once_per_run(node):
    """An activity that runs exactly once each time ``node`` runs."""
    if isinstance(node, Activity):
        return node.name
    if isinstance(node, (Sequence, Parallel)):
        for child in node.children():
            name = once_per_run(child)
            if name is not None:
                return name
    return None


#: Cells with Choices and Loops outside every Loop, which the checks need.
CELLS = {"gg1": 40, "mmk": 120}


@pytest.fixture(scope="module", params=list(CELLS))
def cell(request):
    spec = ScenarioSpec("mixed", CELLS[request.param], request.param)
    env = build_scenario(spec, seed=20260808).env
    bare = [ServiceSpec(s.name, s.delay, queueing=False) for s in env.services]
    engine = Engine(env.workflow, bare, rng=7)
    records = engine.run(np.arange(N_TRANSACTIONS, dtype=float))
    return env, records


def invoked(record, names) -> bool:
    return any(name in record.invocations for name in names)


def test_mean_elapsed_matches_delay_mean(cell):
    env, records = cell
    checked = 0
    for spec in env.services:
        n = sum(r.invocations.get(spec.name, 0) for r in records)
        if n < MIN_N:
            continue
        mean = sum(r.elapsed.get(spec.name, 0.0) for r in records) / n
        se = np.sqrt(sojourn_variance(spec.delay) / n)
        assert abs(mean - spec.delay.mean) <= Z * se, (spec.name, n, mean)
        checked += 1
    assert checked >= len(env.services) // 2


def test_choice_shares_match_probabilities(cell):
    env, records = cell
    choices = [
        node
        for node, in_loop in walk_with_loop_flag(env.workflow)
        if isinstance(node, Choice) and not in_loop
    ]
    assert choices
    for choice in choices:
        visits = [r for r in records if invoked(r, choice.services())]
        n = len(visits)
        if n < MIN_N:
            continue
        for branch, p in zip(choice.branches, choice.probabilities):
            share = sum(invoked(r, branch.services()) for r in visits) / n
            assert abs(share - p) <= Z * np.sqrt(p * (1 - p) / n), (choice, p, n)


def test_loop_iterations_are_geometric(cell):
    env, records = cell
    loops = [
        node
        for node, in_loop in walk_with_loop_flag(env.workflow)
        if isinstance(node, Loop) and not in_loop and once_per_run(node.body)
    ]
    assert loops
    for loop in loops:
        marker = once_per_run(loop.body)
        runs = [r.invocations[marker] for r in records if marker in r.invocations]
        if len(runs) < MIN_N:
            continue
        p = loop.continue_prob
        se = np.sqrt(p / (1 - p) ** 2 / len(runs))
        assert abs(np.mean(runs) - 1 / (1 - p)) <= Z * se, (loop, len(runs))
