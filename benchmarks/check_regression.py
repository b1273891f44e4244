"""CI gate: fail when a guarded benchmark regresses.

Three benchmark payloads are guarded:

- ``--suite inference`` (default) —
  ``benchmarks/test_inference_throughput.py`` persists its numbers to
  ``BENCH_inference.json``; the gate keeps PR 1's compile-once (10.5x)
  and batched (22x) speedups from silently eroding and, once the
  baseline carries the ``serving`` section, the speed of a guarded
  raw-evidence query relative to the same query on bin states, and its
  cost over the bare engine query under it (a ceiling).
- ``--suite obs`` — ``tests/perf/test_obs_overhead.py`` persists
  ``benchmarks/results/BENCH_obs.json`` (enabled-vs-disabled
  instrumentation overhead and ``/metrics`` scrape latency); the gate
  keeps the observability layer's "near-zero overhead" contract from
  silently eroding.  The repo-root
  ``BENCH_obs.json`` is the committed baseline; a test run never
  rewrites it.  Once the
  baseline carries the SLO-budget ``budgets`` section, the ratio of
  per-evaluation burn tracking to once-per-publish budget derivation is
  ceilinged too (plus raw latencies under ``--absolute``).
- ``--suite corpus`` — ``benchmarks/test_corpus_matrix.py`` persists
  ``BENCH_corpus.json`` (KERT-BN vs NRT-BN over the scenario-corpus
  matrix); the gate keeps the knowledge-enhanced model's accuracy win
  fraction, its median per-row likelihood advantage, and the
  construction-cost ratio over K2 search from eroding, with a hard
  floor requiring KERT-BN to win at least half the corpus.

Each guarded metric has a *direction*: for higher-is-better metrics
(speedup ratios) the gate fails when ``fresh < baseline * (1 -
tolerance)``; for lower-is-better metrics (overhead ratios, latencies)
it fails when ``fresh > baseline * (1 + tolerance)``.  Improvements
never fail — the gate is one-sided per metric; committed baselines are
refreshed by re-running the benchmark, not by the gate.

Machine-independent ratios are always gated; pass ``--absolute`` to
additionally gate raw numbers (qps, scrape seconds) when baseline and
fresh come from the same machine.

Usage (as CI runs it)::

    cp BENCH_inference.json baseline.json      # before the benchmark
    python -m pytest benchmarks/test_inference_throughput.py -q
    python benchmarks/check_regression.py \
        --baseline baseline.json \
        --fresh benchmarks/results/BENCH_inference.json

    cp BENCH_obs.json obs-baseline.json
    python -m pytest tests/perf/test_obs_overhead.py -q
    python benchmarks/check_regression.py --suite obs \
        --baseline obs-baseline.json \
        --fresh benchmarks/results/BENCH_obs.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Tuple

DEFAULT_TOLERANCE = 0.30

#: (section, key, human label) for the always-on inference ratio checks.
RATIO_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("single", "compile_once_speedup", "compile-once speedup"),
    ("batched", "batched_speedup_vs_loop", "batched throughput vs row loop"),
)
ABSOLUTE_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("batched", "batched_qps", "batched rows/sec"),
)

#: Metrics gated only when the *baseline* already carries them, so older
#: payloads (and minimal test fixtures) stay valid.  Sections may be
#: dotted paths (``matrix.bins3_width6``).
OPTIONAL_RATIO_METRICS: Tuple[Tuple[str, str, str], ...] = (
    (
        "serving",
        "raw_call_speed_vs_binned",
        "guarded raw-evidence query vs binned query",
    ),
)

#: Per-suite guarded metrics.  ``lower`` entries are higher-is-better
#: (gate on a floor); ``upper`` entries are lower-is-better (gate on a
#: ceiling).  ``*_absolute`` entries only apply with ``--absolute``.
#: ``optional_*`` entries only gate once the baseline carries them.
#: ``hard_floors`` entries are ``(section, key, label, floor)``
#: absolute constants checked against the *fresh* payload alone —
#: contracts that no baseline drift may relax.
SUITES = {
    "inference": {
        "lower": RATIO_METRICS,
        "lower_absolute": ABSOLUTE_METRICS,
        "optional_lower": OPTIONAL_RATIO_METRICS,
        "upper": (),
        "upper_absolute": (),
        # The guarded call's cost over the bare engine query under it.
        "optional_upper": (
            (
                "serving",
                "guarded_over_kernel",
                "guarded raw-evidence query vs bare engine query",
            ),
        ),
    },
    "obs": {
        "lower": (),
        "lower_absolute": (),
        "upper": (
            (
                "overhead",
                "enabled_over_disabled_ratio",
                "enabled/disabled query_batch latency ratio",
            ),
        ),
        "upper_absolute": (
            ("scrape", "p95_seconds", "p95 /metrics render latency (s)"),
        ),
        # Budget metrics gate once the baseline records them, so
        # pre-budget payloads stay valid.
        "optional_upper": (
            (
                "budgets",
                "track_over_derive_ratio",
                "per-evaluation burn tracking vs budget derivation",
            ),
        ),
        "optional_upper_absolute": (
            ("budgets", "derive_seconds", "budget derivation latency (s)"),
            ("budgets", "track_seconds", "burn tracking latency (s)"),
        ),
    },
    "corpus": {
        # All three are machine-independent or same-machine ratios: the
        # accuracy win fraction and likelihood gap are deterministic
        # given the corpus seeds; both build times come from one run.
        "lower": (
            (
                "summary",
                "kert_win_fraction",
                "KERT-BN accuracy win fraction",
            ),
            (
                "summary",
                "median_log10_gap_per_row",
                "median per-row log10-likelihood gap",
            ),
            (
                "summary",
                "nrt_over_kert_build_median",
                "median NRT/KERT build-cost ratio",
            ),
        ),
        "lower_absolute": (),
        "upper": (),
        "upper_absolute": (),
        # The paper's claim, as an absolute contract: knowledge-enhanced
        # construction must out-model K2 on at least half the corpus.
        "hard_floors": (
            (
                "summary",
                "kert_win_fraction",
                "KERT-BN corpus win-fraction floor",
                0.5,
            ),
        ),
    },
}


def extract(payload: dict, section: str, key: str) -> float:
    try:
        node = payload
        for part in section.split("."):
            node = node[part]
        value = node[key]
    except (KeyError, TypeError):
        raise SystemExit(
            f"benchmark payload is missing {section}.{key} — "
            "was the benchmark run with an incompatible schema?"
        )
    return float(value)


def _has(payload: dict, section: str, key: str) -> bool:
    node = payload
    try:
        for part in section.split("."):
            node = node[part]
        return key in node
    except (KeyError, TypeError):
        return False


def compare(
    baseline: dict,
    fresh: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    absolute: bool = False,
    suite: str = "inference",
) -> Tuple[List[str], List[str]]:
    """Return ``(failures, report_lines)`` for fresh-vs-baseline.

    A higher-is-better metric fails when ``fresh < baseline * (1 -
    tolerance)``; a lower-is-better metric fails when ``fresh >
    baseline * (1 + tolerance)``.  Improvements never fail.
    """
    if not 0.0 < tolerance < 1.0:
        raise SystemExit(f"tolerance must be in (0, 1), got {tolerance}")
    if suite not in SUITES:
        raise SystemExit(
            f"unknown suite {suite!r} (expected one of {sorted(SUITES)})"
        )
    spec = SUITES[suite]
    lower = spec["lower"] + (spec["lower_absolute"] if absolute else ())
    upper = spec["upper"] + (spec["upper_absolute"] if absolute else ())
    # Optional metrics ride along once the baseline carries them.
    for section, key, label in spec.get("optional_lower", ()):
        if _has(baseline, section, key):
            lower += ((section, key, label),)
    for section, key, label in spec.get("optional_upper", ()):
        if _has(baseline, section, key):
            upper += ((section, key, label),)
    if absolute:
        for section, key, label in spec.get("optional_upper_absolute", ()):
            if _has(baseline, section, key):
                upper += ((section, key, label),)
    if suite == "inference":
        # The perf matrix gates every cell the baseline records, so the
        # speedup floor is not overfit to the canned eDiaMoND net.
        cells = baseline.get("matrix")
        if isinstance(cells, dict):
            for cell in sorted(cells):
                lower += (
                    (
                        f"matrix.{cell}",
                        "batched_speedup_vs_loop",
                        f"matrix[{cell}] batched vs loop",
                    ),
                )
                if absolute:
                    lower += (
                        (
                            f"matrix.{cell}",
                            "batched_qps",
                            f"matrix[{cell}] rows/sec",
                        ),
                    )
    failures: List[str] = []
    report: List[str] = []
    for checks, is_floor in ((lower, True), (upper, False)):
        for section, key, label in checks:
            base = extract(baseline, section, key)
            new = extract(fresh, section, key)
            if is_floor:
                bound = base * (1.0 - tolerance)
                ok = new >= bound
                bound_label = "floor"
            else:
                bound = base * (1.0 + tolerance)
                ok = new <= bound
                bound_label = "ceiling"
            line = (
                f"{'ok  ' if ok else 'FAIL'} {label} ({section}.{key}): "
                f"baseline={base:.4g} fresh={new:.4g} "
                f"{bound_label}={bound:.4g} "
                f"({(new / base - 1.0) * 100.0:+.1f}%)"
            )
            report.append(line)
            if not ok:
                failures.append(line)
    # Hard floors: absolute contracts checked against the fresh payload
    # alone — a slipping baseline can never relax them.
    for section, key, label, floor in spec.get("hard_floors", ()):
        new = extract(fresh, section, key)
        ok = new >= floor
        line = (
            f"{'ok  ' if ok else 'FAIL'} {label} ({section}.{key}): "
            f"fresh={new:.4g} hard-floor={floor:.4g}"
        )
        report.append(line)
        if not ok:
            failures.append(line)
    return failures, report


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when guarded benchmark metrics regress vs baseline"
    )
    parser.add_argument(
        "--baseline", required=True, help="committed BENCH_*.json"
    )
    parser.add_argument(
        "--fresh", required=True, help="freshly produced BENCH_*.json"
    )
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="inference",
        help="which guarded metric set to apply (default: inference)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional drop before failing (default 0.30)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="also gate raw qps (same-machine comparisons only)",
    )
    args = parser.parse_args(argv)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)
    failures, report = compare(
        baseline,
        fresh,
        tolerance=args.tolerance,
        absolute=args.absolute,
        suite=args.suite,
    )
    print(
        f"benchmark regression gate "
        f"[{args.suite}] (tolerance {args.tolerance:.0%}):"
    )
    for line in report:
        print(f"  {line}")
    if failures:
        print(
            f"REGRESSION: {len(failures)} metric(s) dropped more than "
            f"{args.tolerance:.0%} below baseline",
            file=sys.stderr,
        )
        return 1
    print("gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
