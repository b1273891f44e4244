"""Parameter and structure learning.

Parameter learning is *decomposable*: each CPD ``P(X_i | Φ(X_i))`` needs
only the columns ``{X_i} ∪ Φ(X_i)`` — the data-locality property that
Section 3.4 exploits to push learning onto per-service monitoring agents.
The per-node functions here (:func:`fit_linear_gaussian`,
:func:`fit_tabular`) are therefore the exact unit of work a decentralized
agent performs.

Structure learning provides the NRT-BN baseline: the K2 greedy algorithm
(Cooper & Herskovits 1992) over decomposable scores and random-restart
orderings as used in Section 5.3.  Exhaustive search over tiny networks
is K2's test oracle.
"""

from repro.bn.learning.mle import (
    fit_linear_gaussian,
    fit_tabular,
    fit_gaussian_network,
)
from repro.bn.learning.scores import (
    gaussian_bic_local,
    discrete_k2_local,
    ScoreCache,
)
from repro.bn.learning.k2 import k2_search, k2_random_restarts, K2Result
from repro.bn.learning.exhaustive import exhaustive_search

__all__ = [
    "fit_linear_gaussian",
    "fit_tabular",
    "fit_gaussian_network",
    "gaussian_bic_local",
    "discrete_k2_local",
    "ScoreCache",
    "k2_search",
    "k2_random_restarts",
    "K2Result",
    "exhaustive_search",
]
