"""The CI benchmark-regression gate must catch real slowdowns.

Loads ``benchmarks/check_regression.py`` by path (benchmarks/ is not a
package) and drives ``compare``/``main`` with synthetic payloads: the
acceptance case here is that a 2x slowdown *fails* the gate while a
within-tolerance wobble passes.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_GATE = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"


def _load_gate():
    spec = importlib.util.spec_from_file_location("check_regression", _GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

BASELINE = {
    "single": {"compile_once_speedup": 10.0},
    "batched": {"batched_speedup_vs_loop": 20.0, "batched_qps": 100000.0},
}


def test_identical_payload_passes():
    failures, report = gate.compare(BASELINE, copy.deepcopy(BASELINE))
    assert failures == []
    assert len(report) == 2


def test_two_x_slowdown_fails():
    slow = copy.deepcopy(BASELINE)
    slow["single"]["compile_once_speedup"] /= 2.0
    slow["batched"]["batched_speedup_vs_loop"] /= 2.0
    failures, _ = gate.compare(BASELINE, slow)
    assert len(failures) == 2
    assert all("FAIL" in line for line in failures)


def test_drop_within_tolerance_passes():
    wobble = copy.deepcopy(BASELINE)
    wobble["single"]["compile_once_speedup"] *= 0.9  # -10% < 30% tolerance
    failures, _ = gate.compare(BASELINE, wobble)
    assert failures == []


def test_improvements_never_fail():
    better = copy.deepcopy(BASELINE)
    better["single"]["compile_once_speedup"] *= 3.0
    failures, _ = gate.compare(BASELINE, better)
    assert failures == []


def test_absolute_flag_gates_qps():
    slow = copy.deepcopy(BASELINE)
    slow["batched"]["batched_qps"] /= 2.0
    failures, _ = gate.compare(BASELINE, slow)
    assert failures == []  # ratio metrics untouched
    failures, _ = gate.compare(BASELINE, slow, absolute=True)
    assert len(failures) == 1
    assert "batched_qps" in failures[0]


def test_missing_key_is_a_hard_error():
    broken = {"single": {}}
    with pytest.raises(SystemExit, match="compile_once_speedup"):
        gate.compare(BASELINE, broken)


def test_bad_tolerance_rejected():
    with pytest.raises(SystemExit, match="tolerance"):
        gate.compare(BASELINE, BASELINE, tolerance=1.5)


def test_main_exit_codes(tmp_path):
    base_file = tmp_path / "base.json"
    base_file.write_text(json.dumps(BASELINE))
    slow = copy.deepcopy(BASELINE)
    slow["batched"]["batched_speedup_vs_loop"] /= 2.0
    slow_file = tmp_path / "slow.json"
    slow_file.write_text(json.dumps(slow))
    ok = gate.main(["--baseline", str(base_file), "--fresh", str(base_file)])
    assert ok == 0
    failed = gate.main(["--baseline", str(base_file), "--fresh", str(slow_file)])
    assert failed == 1


def test_gate_accepts_the_committed_baseline():
    """The real BENCH_inference.json must satisfy the gate's schema."""
    committed = _GATE.parent.parent / "BENCH_inference.json"
    payload = json.loads(committed.read_text())
    failures, _ = gate.compare(payload, payload, absolute=True)
    assert failures == []


OBS_BASELINE = {
    "overhead": {"enabled_over_disabled_ratio": 1.05},
    "scrape": {"p95_seconds": 0.0005},
}


def test_obs_suite_gates_on_a_ceiling():
    """Overhead metrics are lower-is-better: growth fails, shrink passes."""
    worse = copy.deepcopy(OBS_BASELINE)
    worse["overhead"]["enabled_over_disabled_ratio"] *= 2.0
    failures, _ = gate.compare(OBS_BASELINE, worse, suite="obs")
    assert len(failures) == 1
    assert "enabled_over_disabled_ratio" in failures[0]

    better = copy.deepcopy(OBS_BASELINE)
    better["overhead"]["enabled_over_disabled_ratio"] *= 0.5
    failures, _ = gate.compare(OBS_BASELINE, better, suite="obs")
    assert failures == []


def test_obs_suite_scrape_latency_needs_absolute_flag():
    slow = copy.deepcopy(OBS_BASELINE)
    slow["scrape"]["p95_seconds"] *= 10.0
    failures, _ = gate.compare(OBS_BASELINE, slow, suite="obs")
    assert failures == []  # machine-dependent, not gated by default
    failures, _ = gate.compare(OBS_BASELINE, slow, suite="obs", absolute=True)
    assert len(failures) == 1
    assert "p95_seconds" in failures[0]


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit, match="unknown suite"):
        gate.compare(OBS_BASELINE, OBS_BASELINE, suite="nope")


def test_gate_accepts_the_committed_obs_baseline():
    """The real BENCH_obs.json must satisfy the obs suite's schema."""
    committed = _GATE.parent.parent / "BENCH_obs.json"
    payload = json.loads(committed.read_text())
    failures, _ = gate.compare(payload, payload, suite="obs", absolute=True)
    assert failures == []


def test_serving_ratio_gates_on_a_floor():
    """A guarded raw-evidence query that falls back to binning through
    numpy (~0.3 of the binned call's speed) fails against a baseline
    recording the scalar lookup (~0.9); a baseline without the
    ``serving`` section does not gate it."""
    base = copy.deepcopy(BASELINE)
    base["serving"] = {"raw_call_speed_vs_binned": 0.9}
    ok = copy.deepcopy(base)
    ok["serving"]["raw_call_speed_vs_binned"] = 0.8
    failures, report = gate.compare(base, ok)
    assert failures == [] and len(report) == 3
    slow = copy.deepcopy(base)
    slow["serving"]["raw_call_speed_vs_binned"] = 0.3
    failures, _ = gate.compare(base, slow)
    assert len(failures) == 1
    assert "serving.raw_call_speed_vs_binned" in failures[0]
    failures, report = gate.compare(BASELINE, slow)
    assert failures == [] and len(report) == 2


def test_guarded_over_kernel_gates_on_a_ceiling():
    """The guarded call's cost over the bare engine query is
    lower-is-better: a guarded call back at twice the kernel fails
    against a baseline near 1.2, a wobble passes, and a baseline
    without the ratio does not gate it."""
    base = copy.deepcopy(BASELINE)
    base["serving"] = {"guarded_over_kernel": 1.2}
    ok = copy.deepcopy(base)
    ok["serving"]["guarded_over_kernel"] = 1.4
    failures, report = gate.compare(base, ok)
    assert failures == [] and len(report) == 3
    assert any("ceiling=1.56" in line for line in report)
    slow = copy.deepcopy(base)
    slow["serving"]["guarded_over_kernel"] = 2.3
    failures, _ = gate.compare(base, slow)
    assert len(failures) == 1
    assert "serving.guarded_over_kernel" in failures[0]
    failures, report = gate.compare(BASELINE, slow)
    assert failures == [] and len(report) == 2


def test_matrix_cells_gate_per_cell():
    base = copy.deepcopy(BASELINE)
    base["matrix"] = {
        "bins3_width6": {
            "batched_speedup_vs_loop": 50.0,
            "batched_qps": 1_000_000.0,
        },
        "bins6_width14": {
            "batched_speedup_vs_loop": 40.0,
            "batched_qps": 800_000.0,
        },
    }
    ok, _ = gate.compare(base, copy.deepcopy(base))
    assert ok == []
    slow = copy.deepcopy(base)
    slow["matrix"]["bins6_width14"]["batched_speedup_vs_loop"] = 10.0
    failures, _ = gate.compare(base, slow)
    assert len(failures) == 1
    assert "bins6_width14" in failures[0]
    # Raw cell qps only gates with --absolute (machine-dependent).
    slow_qps = copy.deepcopy(base)
    slow_qps["matrix"]["bins3_width6"]["batched_qps"] = 100_000.0
    failures, _ = gate.compare(base, slow_qps)
    assert failures == []
    failures, _ = gate.compare(base, slow_qps, absolute=True)
    assert len(failures) == 1
    assert "bins3_width6" in failures[0]


CORPUS_BASELINE = {
    "summary": {
        "n_cells": 27,
        "kert_win_fraction": 1.0,
        "median_log10_gap_per_row": 4.0,
        "mean_log10_gap_per_row": 2000.0,
        "nrt_over_kert_build_median": 30.0,
    }
}


def test_corpus_suite_passes_on_fresh_baseline():
    failures, report = gate.compare(
        CORPUS_BASELINE, copy.deepcopy(CORPUS_BASELINE), suite="corpus"
    )
    assert failures == []
    assert report


def test_corpus_suite_fails_on_degraded_summary():
    """A synthetically degraded corpus summary must fail the gate."""
    worse = copy.deepcopy(CORPUS_BASELINE)
    worse["summary"]["kert_win_fraction"] = 0.4       # below the 0.5 floor
    worse["summary"]["median_log10_gap_per_row"] = 1.0  # -75% accuracy gap
    worse["summary"]["nrt_over_kert_build_median"] = 1.2  # cost edge gone
    failures, _ = gate.compare(CORPUS_BASELINE, worse, suite="corpus")
    # win fraction fails twice: the relative gate and the hard floor.
    assert len(failures) == 4
    assert any("hard-floor" in f for f in failures)
    assert any("kert_win_fraction" in f for f in failures)
    assert any("median_log10_gap_per_row" in f for f in failures)
    assert any("nrt_over_kert_build_median" in f for f in failures)


def test_corpus_win_fraction_hard_floor():
    """Even a drifted baseline cannot launder a sub-0.5 win fraction."""
    base = copy.deepcopy(CORPUS_BASELINE)
    base["summary"]["kert_win_fraction"] = 0.45  # baseline itself slipped
    fresh = copy.deepcopy(base)
    failures, _ = gate.compare(base, fresh, suite="corpus")
    assert len(failures) == 1
    assert "hard-floor" in failures[0]


def test_corpus_build_ratio_wobble_within_wide_tolerance():
    """KERT builds are milliseconds, so CI runs the corpus gate with
    --tolerance 0.45; a 40% timer wobble on the ratio must pass there."""
    wobble = copy.deepcopy(CORPUS_BASELINE)
    wobble["summary"]["nrt_over_kert_build_median"] *= 0.6
    failures, _ = gate.compare(
        CORPUS_BASELINE, wobble, suite="corpus", tolerance=0.45
    )
    assert failures == []
    # The default 30% band would have caught the same drop.
    failures, _ = gate.compare(CORPUS_BASELINE, wobble, suite="corpus")
    assert len(failures) == 1


def test_gate_accepts_the_committed_corpus_baseline():
    """The real BENCH_corpus.json must satisfy the corpus suite."""
    committed = _GATE.parent.parent / "BENCH_corpus.json"
    payload = json.loads(committed.read_text())
    failures, _ = gate.compare(payload, payload, suite="corpus", absolute=True)
    assert failures == []
    # And its recorded cells must honour the headline claims the
    # benchmark asserts per run.
    assert len(payload["cells"]) >= 9
    for name, cell in payload["cells"].items():
        assert cell["kert"]["build_s"] > 0.0, name
        assert cell["nrt"]["build_s"] > 0.0, name
