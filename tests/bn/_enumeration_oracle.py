"""Brute-force posterior oracle for small discrete networks.

Enumerates every joint state consistent with the evidence, scores each
one with ``network.per_row_log_likelihood`` (the CPDs' own row scoring,
the same code the paper's likelihood metric uses) and marginalizes with
plain NumPy sums.  It imports nothing from ``repro.bn.factors`` or
``repro.bn.inference``, so a bug in the factor algebra, the contraction
planner or the compiled engine cannot also hide in the reference.

Cost is exponential in the number of unobserved variables; callers gate
on :func:`joint_states` against :data:`MAX_JOINT_STATES`.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from repro.bn.data import Dataset

#: Largest full joint grid the property suites enumerate.
MAX_JOINT_STATES = 1 << 20

#: Grid rows scored per ``per_row_log_likelihood`` call (bounds memory).
_CHUNK = 1 << 16


def joint_states(network) -> int:
    """Number of cells in the network's full joint state grid."""
    return math.prod(network.cardinalities.values())


def posterior(
    network,
    variables: Iterable[str],
    evidence: "Mapping[str, int] | None" = None,
) -> np.ndarray:
    """Normalized ``P(variables | evidence)``, axes in ``variables`` order."""
    variables = [str(v) for v in variables]
    evidence = {str(k): int(v) for k, v in (evidence or {}).items()}
    cards = network.cardinalities
    free = [str(n) for n in network.nodes if str(n) not in evidence]
    shape = tuple(cards[n] for n in free)
    n_cells = math.prod(shape)
    mass = np.empty(n_cells)
    for start in range(0, n_cells, _CHUNK):
        rows = np.arange(start, min(start + _CHUNK, n_cells))
        states = np.unravel_index(rows, shape)
        columns = {n: s for n, s in zip(free, states)}
        columns.update({v: np.full(rows.size, s) for v, s in evidence.items()})
        mass[rows] = np.exp(network.per_row_log_likelihood(Dataset(columns)))
    grid = mass.reshape(shape)
    summed = tuple(i for i, n in enumerate(free) if n not in variables)
    kept = [n for n in free if n in variables]
    table = np.transpose(grid.sum(axis=summed), [kept.index(v) for v in variables])
    total = table.sum()
    if total <= 0:
        raise ValueError("evidence has zero probability under the model")
    return table / total
