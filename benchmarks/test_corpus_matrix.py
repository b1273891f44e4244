"""Corpus benchmark matrix: KERT-BN vs NRT-BN across scenario diversity.

Every cell of the (topology family × environment size × delay regime)
matrix realizes one seeded corpus scenario — random Cardoso composition,
M/M/k / G/G/1 / lognormal delays, bursty/diurnal arrivals, failure
storms on the mixed family — and runs the paper's comparison on it:
continuous KERT-BN (workflow knowledge) vs continuous NRT-BN (K2
search), recording per-row test log10-likelihood (accuracy) plus build
seconds and scoring throughput (learn/inference cost).

Cells merge under the ``"cells"`` key of ``BENCH_corpus.json`` (repo
root and ``benchmarks/results/``) and the aggregate ``"summary"`` is
recomputed over every recorded cell; ``check_regression.py --suite
corpus`` gates the summary.  The three ``mixed_n10_*`` cells are the PR
smoke slice; everything else carries the ``corpus_full`` marker and runs
in the nightly scheduled CI job (locally:
``pytest benchmarks/test_corpus_matrix.py -m "" -q``).
"""

import json
import os

import pytest

from _util import RESULTS_DIR, emit_series, results_check

from repro.corpus import default_corpus, format_cell_report, run_cell, summarize

#: Full matrix: 3 families × 3 sizes × 3 delay regimes = 27 cells.
NIGHTLY_SIZES = (10, 40, 120)
CORPUS = default_corpus(sizes=NIGHTLY_SIZES)

#: PR smoke slice: the mixed family exercises choice/loop constructs and
#: failure storms, and its three n=10 cells cover every delay regime.
SMOKE_CELLS = frozenset(
    s.name for s in CORPUS if s.family == "mixed" and s.n_services == 10
)

SEED = 20_260_808

_PARAMS = [
    pytest.param(
        spec,
        id=spec.name,
        marks=() if spec.name in SMOKE_CELLS else (pytest.mark.corpus_full,),
    )
    for spec in CORPUS
]


@pytest.mark.parametrize("spec", _PARAMS)
def test_corpus_cell(spec):
    cell = run_cell(spec, seed=SEED)

    # Per-cell contracts: KERT-BN must stay cheap to build (the paper's
    # central claim) and every recorded number must be finite.
    assert cell["kert"]["build_s"] < 30.0
    for model in ("kert", "nrt"):
        assert cell[model]["build_s"] > 0.0
        assert cell[model]["score_rows_per_s"] > 0.0
    assert cell["nrt_over_kert_build"] > 1.0, (
        f"{spec.name}: knowledge-derived structure should be cheaper "
        f"than K2 search, got ratio {cell['nrt_over_kert_build']:.2f}"
    )

    report = format_cell_report(spec.name, cell)
    print("\n" + report)
    if not results_check():
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, f"corpus_{spec.name}.txt"), "w") as fh:
            fh.write(report + "\n")
    _merge_cells({spec.name: cell})


def test_corpus_summary():
    """Aggregate every recorded cell and assert the headline claims.

    Runs after the parametrized cells (pytest preserves file order).  In
    smoke runs the merge keeps the committed full-matrix cells, so the
    summary always spans the whole corpus.
    """
    payload = _load_payload()
    cells = payload.get("cells", {})
    assert cells, "no corpus cells recorded — did the cell tests run?"
    summary = summarize(cells)
    assert summary["kert_win_fraction"] >= 0.5
    assert summary["nrt_over_kert_build_median"] > 1.0
    _merge_payload({"summary": summary})
    rows = [
        {
            "cell": name,
            "kert_log10_row": c["kert"]["log10_per_row"],
            "nrt_log10_row": c["nrt"]["log10_per_row"],
            "gap_row": c["log10_gap_per_row"],
            "kert_build_s": c["kert"]["build_s"],
            "nrt_build_s": c["nrt"]["build_s"],
            "build_ratio": c["nrt_over_kert_build"],
        }
        for name, c in sorted(cells.items())
    ]
    emit_series(
        "corpus_matrix",
        f"KERT-BN vs NRT-BN over {summary['n_cells']} corpus cells "
        f"(win fraction {summary['kert_win_fraction']:.2f})",
        rows,
        timing=("kert_build_s", "nrt_build_s", "build_ratio"),
    )


# --------------------------------------------------------------------- #
# Payload plumbing (same merge convention as BENCH_inference.json)
# --------------------------------------------------------------------- #

_ROOT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_corpus.json")

#: The payload as this run last merged it.  A results check writes no
#: file, so the summary reads the cells it just ran from here.
_merged: "dict | None" = None


def _load_payload() -> dict:
    """The freshest payload: this run's merge, then the results copy,
    then the committed one."""
    if _merged is not None:
        return _merged
    for path in (os.path.join(RESULTS_DIR, "BENCH_corpus.json"), _ROOT_PATH):
        if os.path.exists(path):
            with open(path) as fh:
                return json.load(fh)
    return {}


def _merge_cells(new_cells: dict) -> None:
    payload = _load_payload()
    cells = dict(payload.get("cells", {}))
    cells.update(new_cells)
    _merge_payload({"cells": cells})


def _merge_payload(update: dict) -> None:
    global _merged
    payload = _load_payload()
    payload.update(update)
    _merged = payload
    if results_check():
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for path in (os.path.join(RESULTS_DIR, "BENCH_corpus.json"), _ROOT_PATH):
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
