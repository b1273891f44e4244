"""Evidence validation and binning for the serving layer.

Monitoring data arrives noisy and partial (Sutton & Jordan's point about
real queueing measurements), so the serving front-end never trusts a
query row: every row is checked against the model's variable set and
value domain, and a bad row is *rejected with reasons* instead of
crashing the server.  (The columnar batch lane runs the same bin-range
check vectorized and masks out-of-range rows while the clean rows keep
flowing.)

:func:`bin_row` is the single call's one pass over its evidence: each
item is checked and turned into its bin state in the same step, so a
clean row comes back as the ``{str: int}`` state dict the fallback chain
reads.  Two evidence unit systems are supported:

- **raw** — values are continuous measurement means in the original
  units; they must be finite numbers and are binned like
  :meth:`~repro.bn.discretize.Discretizer.state_of`:
  ``bisect_right`` over the variable's interior bin edges;
- **binned** — values are integer bin states; they must be integral and
  in ``[0, cardinality)`` for their variable.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Collection, Mapping


def bin_row(
    row: Mapping,
    known: "frozenset[str]",
    forbid: Collection[str],
    cards: "Mapping[str, int]",
    edges: "Mapping[str, list[float]] | None" = None,
) -> "tuple[dict[str, int] | None, tuple[str, ...]]":
    """Validate and bin one evidence row: ``(states, reasons)``.

    ``edges`` maps every ``known`` variable to its interior bin edges
    as a sorted list of floats, and makes the row's values raw means;
    without it they are bin states, checked against ``cards``.
    ``forbid`` holds the (string) names that may not appear in ``row``.
    A clean row gives its ``{str: int}`` states and no reasons;
    otherwise the states are ``None`` and the reasons say, item by item
    and in the row's order, why the row is rejected.
    """
    # The dict check first: it answers the common case ~10x faster
    # than the ABC's __instancecheck__.
    if not (isinstance(row, dict) or isinstance(row, Mapping)):
        return None, (f"evidence row must be a mapping, got {type(row).__name__}",)
    states: dict[str, int] = {}
    reasons: list[str] = []
    for name, value in row.items():
        name = str(name)
        if name not in known:
            reasons.append(f"unknown variable {name!r}")
            continue
        if name in forbid:
            reasons.append(f"variable {name!r} may not appear in evidence")
            continue
        if edges is None:
            try:
                state = int(value)
                drift = float(value) - state
            except (TypeError, ValueError, OverflowError):
                reasons.append(f"{name!r}: bin state {value!r} is not an integer")
                continue
            if drift != 0.0:
                reasons.append(f"{name!r}: bin state {value!r} is not integral")
                continue
            card = cards[name]
            if not 0 <= state < card:
                reasons.append(f"{name!r}: bin {state} out of range [0, {card})")
                continue
        else:
            try:
                x = float(value)
            except (TypeError, ValueError, OverflowError):
                reasons.append(f"{name!r}: value {value!r} is not a number")
                continue
            if x - x != 0.0:  # NaN or ±inf
                reasons.append(
                    f"{name!r}: NaN mean" if x != x
                    else f"{name!r}: non-finite mean {x!r}"
                )
                continue
            state = bisect_right(edges[name], x)
        states[name] = state
    if reasons:
        return None, tuple(reasons)
    return states, ()
