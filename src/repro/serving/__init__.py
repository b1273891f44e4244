"""Resilient model-serving layer.

Everything between a learned model and the autonomic components that
query it: the versioned :class:`ModelRegistry`, the guarded
:class:`ModelServer` front-end for discrete models, with its tiered
:class:`FallbackChain` behind deterministic per-tier
:class:`CircuitBreaker` objects, and the
:class:`DataQualityGate` + :class:`AccuracyTripwire` pair that keep
poisoned monitoring windows and regressed models out of production.
"""

from repro.serving.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)
from repro.serving.fallback import (
    CHAIN,
    TIER_COMPILED,
    TIER_PRIOR,
    TIER_SAMPLING,
    TIER_SWEEP,
    FallbackChain,
    TierAnswer,
)
from repro.serving.quality import (
    AccuracyTripwire,
    DataQualityGate,
    PublishOutcome,
    WindowVerdict,
)
from repro.serving.registry import ModelRegistry, VersionInfo
from repro.serving.server import (
    STATUS_OK,
    STATUS_REJECTED,
    ColumnarBatchResult,
    ModelServer,
    QueryResult,
)

__all__ = [
    "AccuracyTripwire",
    "CHAIN",
    "CLOSED",
    "CircuitBreaker",
    "ColumnarBatchResult",
    "DataQualityGate",
    "FallbackChain",
    "HALF_OPEN",
    "ModelRegistry",
    "ModelServer",
    "OPEN",
    "PublishOutcome",
    "QueryResult",
    "STATUS_OK",
    "STATUS_REJECTED",
    "TIER_COMPILED",
    "TIER_PRIOR",
    "TIER_SAMPLING",
    "TIER_SWEEP",
    "TierAnswer",
    "VersionInfo",
    "WindowVerdict",
]
