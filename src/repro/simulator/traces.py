"""Turning transaction records into learning datasets.

One dataset row per monitored transaction.  Monitoring noise — the
physical source of Eq. 4's leak ``l`` — is applied here, on the
*measured* elapsed times only; the response time is measured at the
client and stays exact.  Reporting failures (Sec. 5.1) are
:func:`inject_missing` applied to the result: a complete trace with
some entries masked out.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.bn.data import Dataset
from repro.exceptions import DataError
from repro.simulator.engine import TransactionRecord
from repro.utils.rng import ensure_rng


def trace_to_dataset(
    records: Sequence[TransactionRecord],
    services: Iterable[str],
    response: str = "D",
    measurement_noise: float = 0.0,
    rng=None,
) -> Dataset:
    """Convert transaction records to a ``(X_1..X_n, D)`` dataset.

    Parameters
    ----------
    records:
        Completed transactions from :meth:`Engine.run`.
    services:
        Column order for the elapsed-time columns; services a transaction
        did not touch contribute 0 (the zero-fill convention the
        measurement-mode ``f`` relies on).
    measurement_noise:
        Relative std of multiplicative Gaussian noise on elapsed times
        (monitoring imprecision, Section 3.3's leak source).
    """
    if not records:
        raise DataError("no transaction records")
    services = [str(s) for s in services]
    if response in services:
        raise DataError(f"response column {response!r} collides with a service")
    rng = ensure_rng(rng)

    n = len(records)
    cols = {s: np.zeros(n) for s in services}
    resp = np.empty(n)
    for i, r in enumerate(records):
        for s, v in r.elapsed.items():
            if s in cols:
                cols[s][i] = v
        resp[i] = r.response_time
    if measurement_noise:
        for s in services:
            cols[s] = cols[s] * (1.0 + rng.normal(0.0, measurement_noise, size=n))
            np.clip(cols[s], 0.0, None, out=cols[s])

    cols[response] = resp
    return Dataset(cols)


def inject_missing(
    data: Dataset,
    columns: Iterable[str],
    fraction: float = 1.0,
    rng=None,
) -> Dataset:
    """Mask entries with NaN — unobservable components for dComp (Sec 5.1).

    ``fraction=1.0`` blinds a column entirely (no instrumentation);
    ``fraction<1`` models intermittent reporting failures.
    """
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"fraction must be in (0, 1], got {fraction}")
    rng = ensure_rng(rng)
    out = {}
    targets = set(columns)
    unknown = targets - set(data.columns)
    if unknown:
        raise DataError(f"unknown columns {sorted(unknown)}")
    for c in data.columns:
        col = np.asarray(data[c], dtype=float).copy()
        if c in targets:
            if fraction >= 1.0:
                col[:] = np.nan
            else:
                mask = rng.random(col.size) < fraction
                col[mask] = np.nan
        out[c] = col
    return Dataset(out)


def warmup_filter(
    records: Sequence[TransactionRecord], warmup: int
) -> list[TransactionRecord]:
    """Drop the first ``warmup`` transactions (cold-start bias)."""
    if warmup < 0:
        raise DataError(f"warmup must be >= 0, got {warmup}")
    if warmup >= len(records):
        raise DataError(
            f"warmup {warmup} leaves no records out of {len(records)}"
        )
    return list(records[warmup:])
