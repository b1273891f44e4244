"""Evidence validation and sanitization for the serving layer.

Monitoring data arrives noisy and partial (Sutton & Jordan's point about
real queueing measurements), so the serving front-end never trusts a
query row: every row is checked against the model's variable set and
value domain, and a bad row is *rejected with reasons* instead of
crashing the server.  (The columnar batch lane runs the same bin-range
check vectorized and masks out-of-range rows while the clean rows keep
flowing.)

Two evidence unit systems are supported:

- **raw** (default) — values are continuous measurement means in the
  original units; they must be finite numbers and are later discretized
  through the model's discretizer;
- **binned** — values are integer bin states; they must be integral and
  in ``[0, cardinality)`` for their variable.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Mapping


def check_row(
    row: Mapping,
    *,
    known: "frozenset[str] | set[str]",
    cards: "Mapping[str, int] | None" = None,
    forbid: Collection[str] = (),
    binned: bool = False,
    require_nonempty: bool = True,
) -> tuple[str, ...]:
    """Return the tuple of reasons ``row`` must be rejected (empty = ok);
    ``forbid`` holds the (string) names that may not appear in ``row``."""
    reasons: list[str] = []
    if not isinstance(row, Mapping):
        return (f"evidence row must be a mapping, got {type(row).__name__}",)
    if require_nonempty and not row:
        reasons.append("empty evidence row")
    for name, value in row.items():
        name = str(name)
        if name not in known:
            reasons.append(f"unknown variable {name!r}")
            continue
        if name in forbid:
            reasons.append(f"variable {name!r} may not appear in evidence")
            continue
        if binned:
            try:
                state = int(value)
                drift = float(value) - state
            except (TypeError, ValueError):
                reasons.append(f"{name!r}: bin state {value!r} is not an integer")
                continue
            if drift != 0.0:
                reasons.append(f"{name!r}: bin state {value!r} is not integral")
                continue
            card = (cards or {}).get(name)
            if card is not None and not 0 <= state < card:
                reasons.append(
                    f"{name!r}: bin {state} out of range [0, {card})"
                )
        else:
            try:
                x = float(value)
            except (TypeError, ValueError):
                reasons.append(f"{name!r}: value {value!r} is not a number")
                continue
            if math.isnan(x):
                reasons.append(f"{name!r}: NaN mean")
            elif math.isinf(x):
                reasons.append(f"{name!r}: non-finite mean {x!r}")
    return tuple(reasons)
