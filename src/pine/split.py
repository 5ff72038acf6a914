"""Edge partitioning for link prediction: message passing vs supervision,
train/validation/test positives, and uniform negative sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import AttributedGraph, build_graph


class SplitError(ValueError):
    """Graph too small to produce every nonempty part."""


@dataclass
class EdgeSplit:
    """(E, 2) arrays of (src, dst) pairs.  Message edges are the structure
    visible to the model; supervision/val/test positives are prediction
    targets only and never overlap the message set."""

    message_edges: np.ndarray
    supervision_pos: np.ndarray
    val_pos: np.ndarray
    test_pos: np.ndarray
    val_neg: np.ndarray
    test_neg: np.ndarray
    num_nodes: int

    def message_graph(self, g: AttributedGraph) -> AttributedGraph:
        return build_graph(
            g.num_nodes,
            self.message_edges[:, 0],
            self.message_edges[:, 1],
            g.features,
            id_map=list(g.id_map),
        )


def _pair_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """``dst * n + src``: sorted for pairs in the canonical (dst, src) order."""
    return np.asarray(dst, dtype=np.int64) * n + np.asarray(src, dtype=np.int64)


def _isin_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of each of ``keys`` in the sorted array ``sorted_keys``."""
    if not sorted_keys.size:
        return np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def sample_negatives(
    g: AttributedGraph,
    count: int,
    rng: np.random.Generator,
    forbidden: np.ndarray | None = None,
) -> np.ndarray:
    """Uniformly sampled ordered node pairs that are not edges, not
    self-pairs, not in the (E, 2) ``forbidden`` pairs, and distinct within
    the returned batch.

    Candidate pairs are drawn in batches and accepted in draw order; after
    ``100 * count + 1000`` draws without ``count`` acceptances the graph is
    taken to have too few non-edges and ``SplitError`` is raised."""
    n = g.num_nodes
    blocked = _pair_keys(g.edge_src, g.edge_dst, n)
    if forbidden is not None and len(forbidden):
        forbidden = np.asarray(forbidden).reshape(-1, 2)
        blocked = np.sort(np.concatenate([blocked, _pair_keys(forbidden[:, 0], forbidden[:, 1], n)]))
    budget = 100 * max(count, 1) + 1000
    accepted = np.empty(0, dtype=np.int64)  # in draw order
    drawn = 0
    while accepted.size < count:
        if drawn >= budget or n == 0:
            raise SplitError(f"could not sample {count} negatives from a graph with N={n}, M={g.num_edges}")
        need = count - accepted.size
        # expected share of draws that are new non-edges, floored so one
        # batch stays a bounded multiple of what is still needed
        free = max(0.1, 1.0 - (blocked.size + n + accepted.size) / float(n * n))
        batch = min(budget - drawn, int(1.1 * need / free) + 64)
        drawn += batch
        uv = rng.integers(0, n, size=(batch, 2))
        keys = _pair_keys(uv[:, 0], uv[:, 1], n)
        keys = keys[(uv[:, 0] != uv[:, 1]) & ~_isin_sorted(blocked, keys) & ~_isin_sorted(np.sort(accepted), keys)]
        _unique, first = np.unique(keys, return_index=True)
        accepted = np.concatenate([accepted, keys[np.sort(first)][:need]])
    dst, src = np.divmod(accepted, max(n, 1))
    return np.stack([src, dst], axis=1)


def split_edges(
    g: AttributedGraph,
    fractions: tuple[float, float, float] = (0.70, 0.15, 0.15),
    supervision_fraction: float = 0.30,
    rng_seed: int = 0,
) -> EdgeSplit:
    """Uniform random partition of the edges into train/val/test, with a
    disjoint supervision subset carved out of train; the rest of train is
    the message-passing structure.  Validation/test negatives are sampled
    once here (1:1 with positives) and stay fixed."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    m = g.num_edges
    rng = np.random.default_rng(rng_seed)
    perm = rng.permutation(m)
    pairs = np.stack([g.edge_src, g.edge_dst], axis=1)[perm]

    n_val = int(fractions[1] * m)
    n_test = int(fractions[2] * m)
    n_train = m - n_val - n_test
    n_sup = int(supervision_fraction * n_train)
    n_msg = n_train - n_sup
    if min(n_val, n_test, n_sup, n_msg) < 1:
        raise SplitError(f"graph with M={m} edges is too small to split into nonempty parts")

    train, val, test = pairs[:n_train], pairs[n_train : n_train + n_val], pairs[n_train + n_val :]
    supervision, message = train[:n_sup], train[n_sup:]
    val_neg = sample_negatives(g, n_val, rng)
    test_neg = sample_negatives(g, n_test, rng, forbidden=val_neg)
    return EdgeSplit(
        message_edges=message,
        supervision_pos=supervision,
        val_pos=val,
        test_pos=test,
        val_neg=val_neg,
        test_neg=test_neg,
        num_nodes=g.num_nodes,
    )
