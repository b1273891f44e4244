"""Random-number-generator plumbing.

Every stochastic entry point in the library accepts ``rng`` as either an
integer seed, an existing :class:`numpy.random.Generator`, or ``None``
(fresh OS entropy).  Centralizing the coercion keeps experiments
reproducible: a single seed threaded through an experiment yields
deterministic datasets, structures and learned parameters.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def ensure_rng(rng: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` for OS entropy, an ``int`` seed, or an existing generator
        (returned unchanged so generator state is shared, not copied).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"rng must be None, int or numpy Generator, got {type(rng)!r}")

