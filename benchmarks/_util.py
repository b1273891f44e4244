"""Shared helpers for the figure-reproduction benchmarks.

Each ``test_fig*.py`` regenerates one figure of the paper's evaluation:
it sweeps the paper's parameter, prints the series in a paper-shaped
table, persists it under ``benchmarks/results/`` (so the data survives
pytest's output capture), and times a representative unit of work with
pytest-benchmark.

With ``REPRO_RESULTS_CHECK=1`` (:func:`results_check`) a figure is
checked instead of written: every cell outside its declared timing
columns must equal the committed ``benchmarks/results/<figure>.txt``, so
a change that moves a figure's numbers fails until the file is
regenerated.  A check run writes no file at all: the ``BENCH_*.json``
payloads and the per-cell corpus reports stay as committed.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def results_check() -> bool:
    """Whether ``REPRO_RESULTS_CHECK`` asks to check results, not write them."""
    return os.environ.get("REPRO_RESULTS_CHECK", "0") not in ("", "0")


def emit_series(
    figure: str,
    header: str,
    rows: "Iterable[Mapping]",
    *,
    timing: "Iterable[str]",
) -> str:
    """Format, print, and persist one figure's data series.

    ``timing`` names the columns that hold wall-clock measurements (or
    ratios of them); they are the only cells the results check skips.
    Returns the formatted text (also written to
    ``benchmarks/results/<figure>.txt`` unless the check is on).
    """
    rows = list(rows)
    if not rows:
        raise ValueError(f"{figure}: no rows to emit")
    keys = list(rows[0].keys())
    timing = set(timing)
    if not timing.issubset(keys):
        raise ValueError(f"{figure}: unknown timing columns {sorted(timing - set(keys))}")
    widths = {k: max(len(str(k)), 12) for k in keys}
    table = [[_cell(r[k]) for k in keys] for r in rows]
    lines = [f"== {figure}: {header} =="]
    lines.append("  ".join(str(k).ljust(widths[k]) for k in keys))
    for cells in table:
        lines.append("  ".join(c.ljust(widths[k]) for c, k in zip(cells, keys)))
    text = "\n".join(lines)
    print("\n" + text)
    path = os.path.join(RESULTS_DIR, f"{figure}.txt")
    if results_check():
        _check_committed(path, figure, lines[:2], keys, widths, table, timing)
        return text
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def _cell(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _split(line: str, keys: list, widths: dict) -> list:
    """The cells of one table line as :func:`emit_series` wrote it: each
    cell is left-justified to its column width and followed by two
    spaces, and no cell holds two spaces in a row or starts with one."""
    cells, pos = [], 0
    for k in keys:
        if pos >= len(line) or line[pos] == " ":
            cell = ""
        else:
            end = line.find("  ", pos)
            cell = line[pos:] if end < 0 else line[pos:end]
        cells.append(cell.rstrip())
        pos += max(len(cells[-1]), widths[k]) + 2
    return cells


def _check_committed(path, figure, head, keys, widths, table, timing) -> None:
    """Fail, naming the figure, row and column, where a non-timing cell
    differs from the committed file."""
    if not os.path.exists(path):
        raise AssertionError(f"{figure}: no committed results file {path}")
    with open(path) as fh:
        committed = fh.read().splitlines()
    if [line.rstrip() for line in committed[:2]] != [line.rstrip() for line in head]:
        raise AssertionError(
            f"{figure}: title or columns differ from the committed file: "
            f"{committed[:2]} != {head}"
        )
    if len(committed) - 2 != len(table):
        raise AssertionError(
            f"{figure}: {len(table)} rows, the committed file has {len(committed) - 2}"
        )
    for i, (line, cells) in enumerate(zip(committed[2:], table)):
        for k, old, new in zip(keys, _split(line, keys, widths), cells):
            if k not in timing and old != new:
                raise AssertionError(
                    f"{figure}: row {i} ({cells[0]}), column {k!r}: "
                    f"committed {old!r}, regenerated {new!r}"
                )
