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

    def tsv_lines(self):
        """``node<TAB>value`` lines in ranking order, each ending in a newline."""
        return (f"{node}\t{self.values[node]:.10g}\n" for node in self.ranking())

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self.tsv_lines())


class ScoreFileError(ValueError):
    """A score file row that does not give one value to one node."""


def read_score_rows(path, num_nodes: int | None = None) -> dict[int, float]:
    """The ``node_id<TAB>value`` rows of a score or label file, by node id.
    Blank lines and ``#`` comments are skipped.  A row that is not two
    tab-separated fields, whose id is not an integer in [0, num_nodes) (or
    is negative when ``num_nodes`` is None), or whose id an earlier row
    gave, raises ``ScoreFileError`` naming ``path:lineno``."""
    rows: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                node_text, value_text = text.split("\t")
                node, value = int(node_text), float(value_text)
            except ValueError as exc:
                raise ScoreFileError(f"{path}:{lineno}: expected node_id<TAB>value, got {text!r} ({exc})") from exc
            if node < 0:
                raise ScoreFileError(f"{path}:{lineno}: node id {node} is negative")
            if num_nodes is not None and node >= num_nodes:
                raise ScoreFileError(f"{path}:{lineno}: node id {node} is past the last node ({num_nodes - 1})")
            if node in rows:
                raise ScoreFileError(f"{path}:{lineno}: node id {node} given twice")
            rows[node] = value
    return rows


def read_score_tsv(path, num_nodes: int | None = None) -> np.ndarray:
    """Read the rows of a score file (see ``read_score_rows``) into a dense
    vector of ``num_nodes`` values (the largest id plus one when not
    given); nodes without a row score 0."""
    rows = read_score_rows(path, num_nodes)
    n = num_nodes if num_nodes is not None else max(rows, default=-1) + 1
    values = np.zeros(n, dtype=np.float64)
    values[np.array(list(rows), dtype=np.int64)] = list(rows.values())
    return values
