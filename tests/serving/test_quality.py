"""Data-quality gate (quarantine) and post-publish accuracy tripwire."""

import numpy as np
import pytest

from repro.bn.data import Dataset
from repro.exceptions import ServingError
from repro.serving.quality import AccuracyTripwire, DataQualityGate
from repro.serving.registry import ModelRegistry

COLS = ("x", "y")


def _window(rng, n=100, x_mean=1.0, y_mean=2.0, nan_frac=0.0, outliers=0):
    x = rng.normal(x_mean, 0.1, size=n)
    y = rng.normal(y_mean, 0.2, size=n)
    if nan_frac:
        k = int(n * nan_frac)
        x[:k] = np.nan
    if outliers:
        x[-outliers:] = x_mean + 1e6
    return Dataset({"x": x, "y": y})


def test_gate_validation():
    with pytest.raises(ServingError):
        DataQualityGate(columns=())
    with pytest.raises(ServingError):
        DataQualityGate(columns=COLS, max_nan_fraction=1.0)
    with pytest.raises(ServingError):
        DataQualityGate(columns=COLS, ema=0.0)


def test_clean_windows_accepted_and_build_reference():
    rng = np.random.default_rng(0)
    gate = DataQualityGate(columns=COLS, min_rows=10)
    for _ in range(3):
        assert gate.inspect(_window(rng)).accepted
    assert gate.has_reference and gate.n_accepted == 3
    assert gate.quarantined == []


def test_missing_column_quarantined():
    rng = np.random.default_rng(0)
    gate = DataQualityGate(columns=COLS, min_rows=10)
    v = gate.inspect(Dataset({"x": rng.normal(size=50)}))
    assert not v.accepted and any("missing column 'y'" in r for r in v.reasons)
    assert gate.quarantined[0][0] == 0


def test_nan_flood_quarantined():
    rng = np.random.default_rng(0)
    gate = DataQualityGate(columns=COLS, min_rows=10, max_nan_fraction=0.2)
    v = gate.inspect(_window(rng, nan_frac=0.5))
    assert not v.accepted and any("non-finite fraction" in r for r in v.reasons)


def test_outlier_burst_quarantined():
    rng = np.random.default_rng(0)
    gate = DataQualityGate(columns=COLS, min_rows=10, max_outlier_fraction=0.05)
    v = gate.inspect(_window(rng, outliers=20))
    assert not v.accepted and any("outlier fraction" in r for r in v.reasons)


def test_short_window_quarantined():
    rng = np.random.default_rng(0)
    gate = DataQualityGate(columns=COLS, min_rows=50)
    v = gate.inspect(_window(rng, n=10))
    assert not v.accepted and any("rows < 50" in r for r in v.reasons)


def test_mean_shift_drift_quarantined_then_recovers():
    rng = np.random.default_rng(0)
    gate = DataQualityGate(columns=COLS, min_rows=10, drift_threshold=6.0)
    for _ in range(3):
        gate.inspect(_window(rng))
    poisoned = _window(rng, x_mean=50.0)       # unit mix-up style shift
    v = gate.inspect(poisoned)
    assert not v.accepted
    assert any("drift" in r for r in v.reasons)
    assert v.drift_score > 6.0 and v.column_drift["x"] > 6.0
    # quarantined windows never update the reference …
    ref_after = gate.reference()
    clean = gate.inspect(_window(rng))
    # … so the next clean window still matches it
    assert clean.accepted
    assert gate.reference()["x"][0] == pytest.approx(ref_after["x"][0], rel=0.05)
    assert [i for i, _ in gate.quarantined] == [3]


# --------------------------------------------------------------------- #
# Accuracy tripwire
# --------------------------------------------------------------------- #


def _noise_model(env, rng, n=200):
    """A model trained on garbage: same schema, no structure to learn."""
    from repro.core.kertbn import build_discrete_kertbn

    cols = {
        s: rng.uniform(0.1, 10.0, size=n)
        for s in (*env.service_names, env.response)
    }
    return build_discrete_kertbn(env.workflow, Dataset(cols), n_bins=4)


def test_tripwire_keeps_an_equally_good_model(
    tmp_path, fresh_discrete_model, ediamond_data
):
    _, test = ediamond_data
    reg = ModelRegistry(str(tmp_path / "reg"))
    tw = AccuracyTripwire(reg, max_regression=0.5)
    first = tw.publish_checked(fresh_discrete_model, test)
    assert first.version == 1 and not first.rolled_back
    assert first.previous_score is None  # nothing to compare against yet
    again = tw.publish_checked(fresh_discrete_model, test)
    assert again.version == 2 and not again.rolled_back
    assert again.new_score == pytest.approx(again.previous_score)
    assert reg.active_version == 2


def test_tripwire_rolls_back_a_regressed_model(
    tmp_path, fresh_discrete_model, ediamond_env, ediamond_data
):
    _, test = ediamond_data
    reg = ModelRegistry(str(tmp_path / "reg"))
    tw = AccuracyTripwire(reg, max_regression=0.5)
    tw.publish_checked(fresh_discrete_model, test)
    bad = _noise_model(ediamond_env, np.random.default_rng(7))
    outcome = tw.publish_checked(bad, test)
    assert outcome.rolled_back and tw.n_rollbacks == 1
    assert outcome.version == 2 and outcome.active_version == 1
    assert reg.active_version == 1
    assert not reg.info(2).healthy
    assert "tripwire" in reg.info(2).reason
    # the rolled-back-to model still serves
    assert reg.load().log10_likelihood(test) == pytest.approx(
        fresh_discrete_model.log10_likelihood(test)
    )


def test_tripwire_keeps_the_new_model_when_the_incumbent_is_missing(
    tmp_path, fresh_discrete_model, ediamond_data
):
    import os

    _, test = ediamond_data
    reg = ModelRegistry(str(tmp_path / "reg"))
    tw = AccuracyTripwire(reg, max_regression=0.5)
    tw.publish_checked(fresh_discrete_model, test)
    tw.publish_checked(fresh_discrete_model, test)
    os.remove(os.path.join(reg.root, reg.info(2).file))

    outcome = tw.publish_checked(fresh_discrete_model, test)
    assert outcome.version == 3 and outcome.active_version == 3
    assert not outcome.rolled_back and outcome.previous_score is None
    assert "v2 failed to load" in outcome.detail
    assert "missing" in outcome.detail
    assert not reg.info(2).healthy
    # A later rollback skips the broken bundle.
    assert reg.previous_healthy() == 1
