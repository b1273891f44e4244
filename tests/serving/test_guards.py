"""Evidence guards: per-row rejection with reasons, never a crash."""

import math
import random
from collections.abc import Mapping

import numpy as np

from repro.bn.discretize import Discretizer
from repro.serving.guards import bin_row

KNOWN = frozenset({"a", "b", "D"})
CARDS = {"a": 4, "b": 4, "D": 4}
DISC = Discretizer.from_edges(
    {
        "a": [0.0, 1.0, 2.0, 3.0, 4.0],
        "b": [0.0, 0.1, 0.2, 0.30000000000000004, 0.5],
        "D": [-2.0, -1.0, 0.0, 1.0, 2.0],
    }
)
#: The interior edges, built the way a served snapshot builds them.
EDGES = {c: DISC.edges(c)[1:-1].tolist() for c in DISC.columns}


def _raw(row, forbid=()):
    return bin_row(row, KNOWN, forbid, CARDS, EDGES)


def _binned(row, forbid=()):
    return bin_row(row, KNOWN, forbid, CARDS)


def test_clean_raw_row_passes():
    assert _raw({"a": 1.5, "b": 0.2}) == ({"a": 1, "b": 2}, ())


def test_unknown_variable_rejected_by_name():
    states, reasons = _raw({"zz": 1.0})
    assert states is None
    assert len(reasons) == 1 and "'zz'" in reasons[0]


def test_forbidden_variable_rejected():
    _, reasons = _raw({"D": 1.0}, forbid=("D",))
    assert any("'D'" in r and "may not appear" in r for r in reasons)


def test_nan_and_inf_means_rejected():
    _, reasons = _raw({"a": float("nan"), "b": float("inf")})
    assert any("NaN" in r for r in reasons)
    assert any("non-finite" in r for r in reasons)


def test_non_number_rejected():
    _, reasons = _raw({"a": "fast"})
    assert any("not a number" in r for r in reasons)


def test_empty_row_is_no_evidence():
    assert _raw({}) == ({}, ())
    assert _binned({}) == ({}, ())


def test_non_mapping_row_rejected():
    states, reasons = _raw([("a", 1.0)])
    assert states is None
    assert len(reasons) == 1 and "mapping" in reasons[0]


def test_binned_rows_validated_against_cardinalities():
    assert _binned({"a": 2}) == ({"a": 2}, ())
    # numpy integers count as integral
    assert _binned({"a": np.int64(3)}) == ({"a": 3}, ())
    _, out = _binned({"a": 4})
    assert any("out of range" in r for r in out)
    _, out = _binned({"a": -1})
    assert any("out of range" in r for r in out)
    _, out = _binned({"a": 1.5})
    assert any("not integral" in r for r in out)
    _, out = _binned({"a": "x"})
    assert any("not an integer" in r for r in out)


def test_multiple_reasons_all_reported():
    _, reasons = _raw({"zz": 1.0, "a": float("nan"), "D": 2.0}, forbid=("D",))
    assert len(reasons) == 3


def test_overflowing_values_are_rejected_not_raised():
    assert _raw({"a": 10**400})[1] == ("'a': value " + repr(10**400) + " is not a number",)
    assert _binned({"a": float("inf")})[1] == ("'a': bin state inf is not an integer",)


# --------------------------------------------------------------------- #
# Differential check against the two-pass guard it replaced
# --------------------------------------------------------------------- #


def _check_row(row, *, known, cards, forbid, binned):
    """The earlier guard, restated: reasons only, binning left to a
    second pass.  One deliberate difference: it let ``OverflowError``
    (``int(inf)``, ``float(10**400)``) escape as a crash, and both
    ``except`` clauses here catch it as the one-pass guard does."""
    reasons = []
    if not isinstance(row, Mapping):
        return (f"evidence row must be a mapping, got {type(row).__name__}",)
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
            except (TypeError, ValueError, OverflowError):
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
            except (TypeError, ValueError, OverflowError):
                reasons.append(f"{name!r}: value {value!r} is not a number")
                continue
            if math.isnan(x):
                reasons.append(f"{name!r}: NaN mean")
            elif math.isinf(x):
                reasons.append(f"{name!r}: non-finite mean {x!r}")
    return tuple(reasons)


def _two_pass(row, forbid, binned):
    """Oracle: the earlier guard, then ``Discretizer.state_of`` per value."""
    reasons = _check_row(row, known=KNOWN, cards=CARDS, forbid=forbid, binned=binned)
    if reasons:
        return None, reasons
    return {
        str(k): int(v) if binned else DISC.state_of(str(k), float(v))
        for k, v in row.items()
    }, ()


_KEYS = ["a", "b", "D", np.str_("b"), "zz", 1, None, ("a",), b"a", 2.5]
_RAW_VALUES = [
    *(e for c in EDGES.values() for e in c),                 # on an edge
    *(e for c in DISC.columns for e in DISC.edges(c)[[0, -1]]),
    -1e9, 1e9, 0.15, 1.5, -0.5, 0.0, -0.0, 5e-324,
    float("nan"), float("inf"), float("-inf"), None,
    "1.5", "2", " 0.2 ", "nan", "-inf", "1e400", "fast", "",
    True, False,
    np.float64(2.0), np.float32(0.1), np.float64("nan"), np.float64("-inf"),
    np.int64(3), np.int8(-1), np.bool_(True),
    10**400, 1j, [1.0], {},
]
_BINNED_VALUES = [
    0, 1, 2, 3, 4, -1, 10**400, 1.5, 2.0, -0.0, 3.000001, -1.0,
    "2", "2.0", "x", None, True, False,
    np.int64(3), np.int64(4), np.uint8(1), np.float64(2.0), np.float64(0.5),
    np.bool_(False), float("nan"), float("inf"), float("-inf"), 1j, [1],
]


def _fuzzed_rows(values, n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        yield {rng.choice(_KEYS): rng.choice(values) for _ in range(rng.randint(0, 5))}


def test_one_pass_guard_equals_check_row_then_state_of():
    forbids = [(), ("D",), ("a", "b")]
    rows = [
        [("a", 1.0)], None, "a=1", 3.0,                      # not mappings
        {"a": 2.0, "b": 0.30000000000000004, "D": 0.0},     # every value on an edge
        {"a": -7.0, "b": 9.0, "D": 2.5},                    # beyond the outer edges
    ]
    for binned, values, seed in ((False, _RAW_VALUES, 1), (True, _BINNED_VALUES, 2)):
        for row in [*rows, *_fuzzed_rows(values, 4000, seed)]:
            for forbid in forbids:
                got = bin_row(row, KNOWN, forbid, CARDS, None if binned else EDGES)
                assert got == _two_pass(row, forbid, binned), (row, forbid, binned)
                states, _ = got
                if states is not None:
                    assert all(type(k) is str and type(s) is int for k, s in states.items())


def test_raw_values_on_an_edge_bin_above_it():
    row = {"a": 2.0, "b": 0.30000000000000004, "D": -1.0}
    assert _raw(row) == ({"a": 2, "b": 3, "D": 1}, ())
    assert _raw({"a": -1e300, "D": 1e300}) == ({"a": 0, "D": 3}, ())
