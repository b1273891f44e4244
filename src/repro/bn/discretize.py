"""Discretization of continuous measurements.

The Section-5 models are *discrete* KERT-BNs (the paper gives two
reasons: plenty of data, and Matlab BNT's inability to express the
nonlinear deterministic CPD).  :class:`Discretizer` turns continuous
elapsed-time / response-time columns into bin indices, remembers the bin
edges and centers, and can map posteriors back to original units.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Mapping

import numpy as np

from repro.bn.data import Dataset
from repro.exceptions import DataError


class Discretizer:
    """Per-column quantile or uniform binning fitted on training data."""

    def __init__(self, n_bins: int = 5, strategy: str = "quantile"):
        if n_bins < 2:
            raise DataError(f"n_bins must be >= 2, got {n_bins}")
        if strategy not in ("quantile", "uniform"):
            raise DataError(f"strategy must be 'quantile' or 'uniform', got {strategy!r}")
        self.n_bins = int(n_bins)
        self.strategy = strategy
        self._edges: dict[str, np.ndarray] = {}
        #: Interior edges (``edges[1:-1]``) as Python floats, rebuilt with
        #: every ``_edges`` entry, so :meth:`state_of` bins one value
        #: without touching numpy.
        self._inner: dict[str, list[float]] = {}
        self._centers: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        edges: "Mapping[str, Iterable[float]]",
        centers: "Mapping[str, Iterable[float]] | None" = None,
        strategy: str = "quantile",
    ) -> "Discretizer":
        """Build a fitted discretizer directly from per-column bin edges.

        This is the public counterpart of :meth:`fit` for edges that come
        from elsewhere (a persisted bundle, a hand-written spec).  Each
        column needs at least two edges (one bin — single-bin columns are
        legal here even though :meth:`fit` always produces two or more);
        ``centers`` defaults to bin midpoints.
        """
        edge_map = {str(c): np.array(v, dtype=float) for c, v in edges.items()}
        if not edge_map:
            raise DataError("from_edges needs at least one column")
        for col, e in edge_map.items():
            if e.ndim != 1 or e.size < 2:
                raise DataError(
                    f"column {col!r} needs >= 2 edges (got shape {e.shape})"
                )
            if not np.all(np.isfinite(e)):
                raise DataError(f"column {col!r} has non-finite edges")
            if not np.all(np.diff(e) > 0):
                raise DataError(f"column {col!r} edges must be strictly increasing")
        center_map: dict[str, np.ndarray] = {}
        for col, e in edge_map.items():
            if centers is not None and col in centers:
                c = np.asarray(centers[col], dtype=float)
                if c.shape != (e.size - 1,):
                    raise DataError(
                        f"column {col!r} has {e.size - 1} bins but "
                        f"{c.size} centers"
                    )
            else:
                c = 0.5 * (e[:-1] + e[1:])
            center_map[col] = c
        if centers is not None:
            extra = set(map(str, centers)) - set(edge_map)
            if extra:
                raise DataError(f"centers name unknown columns {sorted(extra)}")
        disc = cls(
            n_bins=max(2, max(e.size - 1 for e in edge_map.values())),
            strategy=strategy,
        )
        for col, e in edge_map.items():
            disc._set_edges(col, e)
        disc._centers = center_map
        return disc

    @property
    def fitted(self) -> bool:
        return bool(self._edges)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._edges)

    def edges(self, column: str) -> np.ndarray:
        self._check_fitted(column)
        return self._edges[column]

    def centers(self, column: str) -> np.ndarray:
        """Representative value per bin (empirical bin means where
        available, midpoints otherwise)."""
        self._check_fitted(column)
        return self._centers[column]

    def cardinality(self, column: str) -> int:
        self._check_fitted(column)
        return self._edges[column].size - 1

    def cardinalities(self) -> dict[str, int]:
        return {c: self.cardinality(c) for c in self._edges}

    def _set_edges(self, column: str, edges: np.ndarray) -> None:
        """Store ``edges`` read-only, with their interior as a list."""
        edges.setflags(write=False)
        self._edges[column] = edges
        self._inner[column] = edges[1:-1].tolist()

    def _check_fitted(self, column: str) -> None:
        if column not in self._edges:
            raise DataError(
                f"discretizer not fitted for column {column!r}; "
                f"have {list(self._edges)}"
            )

    # ------------------------------------------------------------------ #

    def fit(self, data: Dataset, columns: "Iterable[str] | None" = None) -> "Discretizer":
        """Learn bin edges (and empirical centers) from training data."""
        for col in (columns if columns is not None else data.columns):
            x = np.asarray(data[col], dtype=float)
            if x.size < 2:
                raise DataError(f"column {col!r} too small to discretize")
            lo, hi = float(x.min()), float(x.max())
            if self.strategy == "uniform":
                edges = np.linspace(lo, hi, self.n_bins + 1)
            else:
                qs = np.linspace(0.0, 1.0, self.n_bins + 1)
                edges = np.quantile(x, qs)
            # Deduplicate degenerate edges (heavy ties), keep >= 2 bins by
            # padding when the column is (nearly) constant.
            edges = np.unique(edges)
            if edges.size < 3:
                span = max(hi - lo, 1.0) * 1e-6
                edges = np.array([lo - span, (lo + hi) / 2.0, hi + span])
            # Widen the outer edges so unseen test extremes still bin.
            edges = edges.astype(float)
            self._set_edges(col, edges)
            idx = self._bin(x, edges)
            centers = np.empty(edges.size - 1)
            for b in range(edges.size - 1):
                members = x[idx == b]
                centers[b] = members.mean() if members.size else 0.5 * (edges[b] + edges[b + 1])
            self._centers[col] = centers
        return self

    @staticmethod
    def _bin(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
        # Over the interior edges digitize already returns 0..n_bins-1.
        return np.digitize(x, edges[1:-1])

    def transform(self, data: Dataset, columns: "Iterable[str] | None" = None) -> Dataset:
        """Map continuous columns to bin indices (ints)."""
        cols = list(columns) if columns is not None else list(self._edges)
        out = {}
        for col in cols:
            self._check_fitted(col)
            out[col] = self._bin(np.asarray(data[col], dtype=float), self._edges[col])
        return Dataset(out)

    def expectation(self, column: str, pmf: np.ndarray) -> float:
        """Expected continuous value of a pmf over the column's bins."""
        centers = self.centers(column)
        pmf = np.asarray(pmf, dtype=float)
        if pmf.shape != centers.shape:
            raise DataError(
                f"pmf length {pmf.size} != {centers.size} bins for {column!r}"
            )
        return float(np.dot(pmf, centers))

    def state_of(self, column: str, value: float) -> int:
        """Continuous value → bin index.

        The bin is ``bisect_right(edges[1:-1], value)``: the number of
        interior edges at or below ``value``.  Values beyond the outer
        edges land in the end bins, ±inf likewise, and NaN in the last
        bin — exactly what :meth:`transform` gives for the same value.
        """
        self._check_fitted(column)
        return bisect.bisect_right(self._inner[column], float(value))
