"""Column-oriented dataset container.

One row is one monitored transaction: the elapsed time measured at each
service (``X_i`` columns) plus the end-to-end response time (``D``).
Learning, scoring and the sliding-window selection of Section 2 all
operate on this type.

The container is deliberately thin — a dict of equal-length NumPy arrays
with ordered column names — so that per-node learning can slice out just
``{X_i} ∪ Φ(X_i)`` (the data-locality property that enables decentralized
learning, Section 3.4) without copying unrelated columns.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.exceptions import DataError


class Dataset:
    """Immutable-by-convention table of named, equal-length columns."""

    def __init__(self, columns: Mapping[str, np.ndarray]):
        if not columns:
            raise DataError("Dataset needs at least one column")
        self._columns: dict[str, np.ndarray] = {}
        n = None
        for name, values in columns.items():
            arr = np.asarray(values)
            if arr.ndim != 1:
                raise DataError(f"column {name!r} must be 1-D, got shape {arr.shape}")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise DataError(
                    f"column {name!r} has length {arr.shape[0]}, expected {n}"
                )
            self._columns[str(name)] = arr
        self._n = int(n)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_array(cls, array: np.ndarray, columns: Iterable[str]) -> "Dataset":
        """Build from a 2-D array whose columns are named by ``columns``."""
        array = np.asarray(array)
        names = list(columns)
        if array.ndim != 2 or array.shape[1] != len(names):
            raise DataError(
                f"array shape {array.shape} incompatible with {len(names)} columns"
            )
        return cls({name: array[:, j] for j, name in enumerate(names)})

    @classmethod
    def concat(cls, datasets: Iterable["Dataset"]) -> "Dataset":
        """Stack datasets with identical column sets row-wise."""
        parts = list(datasets)
        if not parts:
            raise DataError("cannot concat zero datasets")
        cols = parts[0].columns
        for d in parts[1:]:
            if d.columns != cols:
                raise DataError("datasets have mismatched columns")
        return cls({c: np.concatenate([d[c] for d in parts]) for c in cols})

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @property
    def n_rows(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise DataError(f"no column {name!r}; have {list(self._columns)}") from None

    def to_array(self, order: "Iterable[str] | None" = None) -> np.ndarray:
        """Return a ``(n_rows, n_cols)`` float array in the given column order."""
        names = list(order) if order is not None else list(self._columns)
        missing = [c for c in names if c not in self._columns]
        if missing:
            raise DataError(f"missing columns {missing}")
        if not names:
            return np.empty((self._n, 0), dtype=float)
        return np.column_stack([self._columns[c].astype(float, copy=False) for c in names])

    # ------------------------------------------------------------------ #
    # Subsetting
    # ------------------------------------------------------------------ #

    def select(self, names: Iterable[str]) -> "Dataset":
        """Project onto a subset of columns (views, not copies)."""
        names = list(names)
        return Dataset({c: self[c] for c in names})

    def rows(self, index: np.ndarray) -> "Dataset":
        """Select rows by boolean mask or integer index array."""
        return Dataset({c: v[index] for c, v in self._columns.items()})

    def head(self, k: int) -> "Dataset":
        """First ``k`` rows."""
        return self.rows(np.arange(min(k, self._n)))

    def split(self, n_train: int) -> tuple["Dataset", "Dataset"]:
        """Split into ``(first n_train rows, remainder)``."""
        if not 0 < n_train < self._n:
            raise DataError(
                f"n_train must be in (0, {self._n}), got {n_train}"
            )
        idx = np.arange(self._n)
        return self.rows(idx[:n_train]), self.rows(idx[n_train:])

    # ------------------------------------------------------------------ #
    # Dunder conveniences
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return f"Dataset(n_rows={self._n}, columns={list(self._columns)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.columns != other.columns or self._n != other._n:
            return False
        return all(np.array_equal(self[c], other[c]) for c in self.columns)
