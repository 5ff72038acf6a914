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
    """A row of a node file (a seed, score or label file) that breaks its rules."""


def node_rows(path, num_nodes: int | None, width: int):
    """``(lineno, node, value)`` of each row of a node file: ``node_id`` rows
    (``width`` 1, value None) or ``node_id<TAB>value`` rows (``width`` 2).
    Lines are UTF-8, ``#`` starts a comment anywhere on a line, and blank lines
    are skipped.  A line that is not UTF-8, a row that is not ``width``
    tab-separated fields, or an id that is not an integer in [0, num_nodes)
    (>= 0 when ``num_nodes`` is None) raises ``ScoreFileError`` at ``path:lineno``."""
    expected = "<TAB>".join(("node_id", "value")[:width])
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # a byte that is not UTF-8 was read as a lone surrogate
            except UnicodeEncodeError:
                raise ScoreFileError(f"{path}:{lineno}: line is not UTF-8 text") from None
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split("\t")
            try:
                if len(fields) != width:
                    raise ValueError(f"not {width} tab-separated fields")
                node, value = int(fields[0]), (float(fields[1]) if width > 1 else None)
            except ValueError as exc:
                raise ScoreFileError(f"{path}:{lineno}: expected {expected}, got {text!r} ({exc})") from exc
            if node < 0:
                raise ScoreFileError(f"{path}:{lineno}: node id {node} is negative")
            if num_nodes == 0:
                raise ScoreFileError(f"{path}:{lineno}: node id {node} names no node: the graph has no nodes")
            if num_nodes is not None and node >= num_nodes:
                raise ScoreFileError(f"{path}:{lineno}: node id {node} is past the last node ({num_nodes - 1})")
            yield lineno, node, value


def read_score_rows(path, num_nodes: int | None = None) -> dict[int, float]:
    """The ``node_rows`` of a score or label file by node id; an id given twice is an error."""
    rows: dict[int, float] = {}
    for lineno, node, value in node_rows(path, num_nodes, 2):
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
