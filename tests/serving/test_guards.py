"""Evidence guards: per-row rejection with reasons, never a crash."""

import numpy as np

from repro.serving.guards import check_row

KNOWN = frozenset({"a", "b", "D"})
CARDS = {"a": 4, "b": 4, "D": 4}


def test_clean_raw_row_passes():
    assert check_row({"a": 1.5, "b": 0.2}, known=KNOWN) == ()


def test_unknown_variable_rejected_by_name():
    reasons = check_row({"zz": 1.0}, known=KNOWN)
    assert len(reasons) == 1 and "'zz'" in reasons[0]


def test_forbidden_variable_rejected():
    reasons = check_row({"D": 1.0}, known=KNOWN, forbid={"D"})
    assert any("'D'" in r and "may not appear" in r for r in reasons)


def test_nan_and_inf_means_rejected():
    reasons = check_row({"a": float("nan"), "b": float("inf")}, known=KNOWN)
    assert any("NaN" in r for r in reasons)
    assert any("non-finite" in r for r in reasons)


def test_non_number_rejected():
    reasons = check_row({"a": "fast"}, known=KNOWN)
    assert any("not a number" in r for r in reasons)


def test_empty_row_rejected_by_default_but_optional():
    assert check_row({}, known=KNOWN) == ("empty evidence row",)
    assert check_row({}, known=KNOWN, require_nonempty=False) == ()


def test_non_mapping_row_rejected():
    reasons = check_row([("a", 1.0)], known=KNOWN)
    assert len(reasons) == 1 and "mapping" in reasons[0]


def test_binned_rows_validated_against_cardinalities():
    assert check_row({"a": 2}, known=KNOWN, cards=CARDS, binned=True) == ()
    # numpy integers count as integral
    assert check_row({"a": np.int64(3)}, known=KNOWN, cards=CARDS, binned=True) == ()
    out = check_row({"a": 4}, known=KNOWN, cards=CARDS, binned=True)
    assert any("out of range" in r for r in out)
    out = check_row({"a": -1}, known=KNOWN, cards=CARDS, binned=True)
    assert any("out of range" in r for r in out)
    out = check_row({"a": 1.5}, known=KNOWN, cards=CARDS, binned=True)
    assert any("not integral" in r for r in out)
    out = check_row({"a": "x"}, known=KNOWN, cards=CARDS, binned=True)
    assert any("not an integer" in r for r in out)


def test_multiple_reasons_all_reported():
    reasons = check_row(
        {"zz": 1.0, "a": float("nan"), "D": 2.0}, known=KNOWN, forbid={"D"}
    )
    assert len(reasons) == 3
