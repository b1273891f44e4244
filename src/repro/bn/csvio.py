"""CSV interchange for monitored datasets.

Management servers commonly export monitoring windows as CSV; these
helpers move :class:`~repro.bn.data.Dataset` instances in and out of that
format (header row = column names; one monitored data point per line;
empty cells load as NaN, the missing-data marker dComp consumes).  The
CLI's ``build`` and ``simulate`` commands read and write them.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from repro.bn.data import Dataset
from repro.exceptions import DataError


def dataset_to_csv(data: Dataset, path: str) -> None:
    """Write ``data`` to ``path`` (NaN cells become empty)."""
    with open(path, "w", newline="") as fh:
        _write(data, fh)


def dataset_to_csv_string(data: Dataset) -> str:
    buf = io.StringIO()
    _write(data, buf)
    return buf.getvalue()


def _write(data: Dataset, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(data.columns)
    arrays = [np.asarray(data[c], dtype=float) for c in data.columns]
    # Missing values are written as the literal "nan" (not an empty cell):
    # a lone empty cell in a single-column file is indistinguishable from a
    # blank line.  The reader accepts both spellings.
    for i in range(data.n_rows):
        writer.writerow(
            ["nan" if np.isnan(a[i]) else repr(float(a[i])) for a in arrays]
        )


def dataset_from_csv(path: str) -> Dataset:
    """Read a dataset from ``path``; empty cells become NaN."""
    with open(path, newline="") as fh:
        return _read(fh)


def dataset_from_csv_string(text: str) -> Dataset:
    return _read(io.StringIO(text))


def _read(fh) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("CSV file is empty") from None
    header = [h.strip() for h in header]
    if not header or any(not h for h in header):
        raise DataError("CSV header must name every column")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise DataError(
                f"line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        try:
            rows.append(
                [float(cell) if cell.strip() else float("nan") for cell in row]
            )
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
    if not rows:
        raise DataError("CSV file has a header but no data rows")
    array = np.asarray(rows, dtype=float)
    return Dataset.from_array(array, header)
