"""Common carrier for per-node importance values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def descending_order(values: np.ndarray) -> np.ndarray:
    """Indices sorted by descending value, ties by ascending index."""
    return np.lexsort((np.arange(values.size), -values))


@dataclass
class ScoreVector:
    values: np.ndarray
    method_name: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("scores must be a flat vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"{self.method_name}: non-finite score values")

    def __len__(self) -> int:
        return self.values.size

    def ranking(self) -> np.ndarray:
        """Node ids sorted by descending score, ties by ascending id."""
        return descending_order(self.values)

    def top_fraction(self, fraction: float) -> np.ndarray:
        """The floor(fraction * N) highest-scoring node ids, deterministic
        under boundary ties (ascending id)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        k = int(fraction * self.values.size)
        return np.sort(self.ranking()[:k])

    def write_tsv(self, path) -> None:
        order = self.ranking()
        with open(path, "w", encoding="utf-8") as fh:
            for node in order:
                fh.write(f"{node}\t{self.values[node]:.10g}\n")


def read_score_tsv(path, num_nodes: int | None = None) -> np.ndarray:
    """Read `node_id<TAB>value` rows into a dense vector."""
    pairs = np.loadtxt(path, delimiter="\t", ndmin=2, dtype=np.float64)
    ids = pairs[:, 0].astype(np.int64)
    n = num_nodes if num_nodes is not None else int(ids.max()) + 1
    values = np.zeros(n, dtype=np.float64)
    values[ids] = pairs[:, 1]
    return values
