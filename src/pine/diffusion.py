"""Attribute-aware propagation models and the Monte Carlo spread estimator.

LT+ and IC+ drive activation with per-edge influence weights that blend a
structural term (1/in-degree of the destination) and a semantic term
(edge-softmax of feature cosine similarities); SIR is the classical
epidemic model run along out-edges.

Every model samples its spread through the live-edge equivalence (Kempe,
Kleinberg and Tardos, KDD 2003): run r draws a random live subgraph from
``default_rng([rng_seed, r])``, and the cascade reaches exactly the nodes
reachable from the seeds in it.  Runs are stacked block-diagonally and
searched at once.  With a step cap, SIR is first-passage percolation: each
live edge also draws its transmission step (the first success of
Geom(beta), within its source's infectious period), and a node counts when
the seeds reach it with steps summing to at most ``max_steps``.  None of
this depends on the seeds, so the graph keeps it in ``g.diffusion``: the
weights of the last alphas asked for, and each model's beta and first chunk
of runs.  Every later call with an equal config on that graph object
searches the kept chunk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .graph import AttributedGraph, EmptyGraphError, check_count, node_mask

MODELS = ("ltp", "icp", "sir")

# Edge and node slots per chunk of stacked Monte Carlo runs; it bounds peak
# memory whatever num_runs is, and does not change any result.
CHUNK_BUDGET = 1 << 20


def worker_count() -> int:
    """Monte Carlo runs execute in the calling thread; kept because bench
    output reports it."""
    return 1


@dataclass
class InfluenceWeights:
    """Per-edge influence in the graph's canonical (destination-grouped)
    edge order.  For every node with at least one in-edge the weights into
    it sum to exactly 1."""

    structural: np.ndarray
    semantic: np.ndarray
    alpha1: float
    alpha2: float

    @property
    def combined(self) -> np.ndarray:
        return self.alpha1 * self.structural + self.alpha2 * self.semantic


def _check_alphas(alpha1: float, alpha2: float) -> None:
    # written so that NaN fails every comparison
    if not (alpha1 >= 0 and alpha2 >= 0 and abs(alpha1 + alpha2 - 1.0) <= 1e-12):
        raise ValueError("alpha1 and alpha2 must be nonnegative and sum to 1")


def compute_influence_weights(g: AttributedGraph, alpha1: float = 0.5, alpha2: float = 0.5) -> InfluenceWeights:
    _check_alphas(alpha1, alpha2)
    structural = 1.0 / g.in_degrees().astype(np.float64)[g.edge_dst]
    return InfluenceWeights(structural, g.in_edge_softmax(g.edge_cosine()), alpha1, alpha2)


@dataclass(frozen=True)
class DiffusionConfig:
    model: str = "ltp"
    alpha1: float = 0.5
    alpha2: float = 0.5
    sir_beta: float | None = None  # None: 1.5 * beta_c from the degree sequence
    sir_gamma: float = 1.0
    max_steps: int | None = None
    num_runs: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")
        _check_alphas(self.alpha1, self.alpha2)
        if self.sir_beta is not None and not 0.0 <= self.sir_beta <= 1.0:
            raise ValueError("sir_beta must lie in [0, 1]")
        if not 0.0 <= self.sir_gamma <= 1.0:
            raise ValueError("sir_gamma must lie in [0, 1]")
        check_count("num_runs", self.num_runs, 1)
        if self.max_steps is not None:
            check_count("max_steps", self.max_steps, 0)
        check_count("rng_seed", self.rng_seed, 0)


@dataclass
class DiffusionResult:
    mean_spread: float
    std_spread: float
    activated_counts: np.ndarray = field(repr=False)

    @property
    def runs(self) -> int:
        return self.activated_counts.size


def critical_sir_beta(g: AttributedGraph) -> float:
    """1.5 x the epidemic threshold <k>/(<k^2>-<k>) of the undirected
    degree sequence, clipped to [0, 1]."""
    _require_nodes(g)
    deg = _undirected_degrees(g)
    k = deg.mean()
    k2 = (deg.astype(np.float64) ** 2).mean()
    if k2 - k <= 0:
        return 1.0
    return float(np.clip(1.5 * k / (k2 - k), 0.0, 1.0))


def _undirected_degrees(g: AttributedGraph) -> np.ndarray:
    """Distinct neighbours of each node in either direction: the degrees of
    the simple undirected graph.  Each pair is one int64 key
    ``min * N + max``, deduplicated by a sort (``np.unique`` on int64 takes
    a slower hash path)."""
    n = g.num_nodes
    keys = np.sort(np.minimum(g.edge_src, g.edge_dst) * n + np.maximum(g.edge_src, g.edge_dst))
    uniq = np.ones(keys.size, dtype=bool)
    uniq[1:] = keys[1:] != keys[:-1]
    keys = keys[uniq]
    return np.bincount(keys // n, minlength=n) + np.bincount(keys % n, minlength=n)


def _require_nodes(g: AttributedGraph) -> None:
    if g.num_nodes == 0:
        raise EmptyGraphError("graph has no nodes; spread and epidemic threshold are per-node averages")


def _segment_cumsum(values: np.ndarray, in_ptr: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums of ``values`` within each destination segment.

    Doubling scan (Hillis and Steele): rounding stays relative to each
    segment's own total, not to the running total of all edges before it.
    """
    out = values.astype(np.float64)
    pos = np.arange(out.size) - in_ptr[dst]
    shift = 1
    while out.size and shift <= pos.max():
        out[shift:] += np.where(pos[shift:] >= shift, out[:-shift], 0.0)
        shift *= 2
    return out


def _live_edge_sampler(g: AttributedGraph, config: DiffusionConfig):
    """Function of a run's RNG returning its live edges in canonical order,
    for a config with its beta filled in: a mask, or for SIR with a step cap
    each edge's transmission step (0 where the edge is dead)."""
    n, src, dst = g.num_nodes, g.edge_src, g.edge_dst
    if config.model == "ltp":
        # A node keeps in-edge e when its uniform threshold falls in e's slice
        # [lo, hi) of the node's cumulative in-influence: at most one edge,
        # edge e with probability weight[e].
        hi = _segment_cumsum(_weights(g, config).combined, g.in_ptr, dst)
        lo = np.zeros_like(hi)
        lo[1:] = hi[:-1]
        lo[g.in_ptr[dst] == np.arange(dst.size)] = 0.0

        def ltp(rng):
            theta = rng.random(n)[dst]
            return (lo <= theta) & (theta < hi)

        return ltp
    if config.model == "icp":
        influence = _weights(g, config).combined
        return lambda rng: rng.random(dst.size) < influence
    beta, gamma = config.sir_beta, config.sir_gamma

    def sir(rng):
        # a node infectious for T steps infects each out-neighbour with
        # probability 1 - (1 - beta)^T; with gamma = 0 it never recovers
        period = rng.geometric(gamma, n) if gamma > 0 else np.full(n, np.inf)
        u = rng.random(dst.size)
        live = u < (1.0 - (1.0 - beta) ** period)[src]
        if config.max_steps is None:
            return live
        # a live edge fires at the first success of Geom(beta): the least s >= 1 with
        # u < 1 - (1 - beta)^s; log1p(-beta) is -inf at beta = 1 and 0 at beta = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            first = np.floor(np.log1p(-u) / np.log1p(-beta)) + 1
        return np.where(live, np.minimum(first, period[src]), 0.0)  # rounding may put s past T

    return sir


def _reached_counts(n: int, indptr, indices, steps, seeds: np.ndarray, max_steps: int | None) -> np.ndarray:
    """Nodes the seeds reach in each run of a chunk, seeds included; with ``steps``, within ``max_steps``."""
    runs = (indptr.size - 1) // n
    root = runs * n  # super-source with a one-step edge to every run's seeds
    indptr = np.append(indptr, indptr[-1] + runs * seeds.size)
    indices = np.concatenate([indices, (np.arange(runs)[:, None] * n + seeds).ravel()], dtype=indices.dtype)
    data = np.ones(indices.size) if steps is None else np.concatenate([steps, np.ones(runs * seeds.size)])
    adj = sparse.csr_matrix((data, indices, indptr), shape=(root + 1, root + 1))
    if steps is None:
        reached = breadth_first_order(adj, root, directed=True, return_predecessors=False)
    else:  # a node infected at step s lies s + 1 from the root
        reached = np.flatnonzero(dijkstra(adj, indices=root, limit=max_steps + 1) < np.inf)
    return np.bincount(reached // n, minlength=runs + 1)[:runs]


def _chunk_rows(g: AttributedGraph, config: DiffusionConfig, start: int = 0):
    """Out-CSR ``indptr`` and ``indices`` of each chunk of ``config``'s runs
    from run ``start`` on, stacked block-diagonally (node v of a chunk's i-th
    run is i * N + v), with each live edge's transmission step for capped SIR
    (else None).  The index arrays are int32, the type ``scipy.sparse.csgraph``
    searches with, so a search of a kept chunk copies none of them."""
    n = g.num_nodes
    draw = _live_edge_sampler(g, config) if start < config.num_runs else None
    chunk = max(1, CHUNK_BUDGET // (n + g.num_edges))
    for lo in range(start, config.num_runs, chunk):
        runs = range(lo, min(lo + chunk, config.num_runs))
        live = np.take(np.stack([draw(np.random.default_rng([config.rng_seed, r])) for r in runs]), g.out_perm, axis=1)
        out_src, out_dst = g.edge_src[g.out_perm], g.edge_dst[g.out_perm]  # gathered only when a chunk is drawn
        run, e = np.divmod(np.flatnonzero(live), live.shape[1])  # row-major, so sorted by (run, source)
        indptr = np.zeros(len(runs) * n + 1, dtype=np.int32)
        np.cumsum(np.bincount(run * n + out_src[e], minlength=len(runs) * n), out=indptr[1:])
        yield indptr, (run * n + out_dst[e]).astype(np.int32), None if live.dtype == bool else live[run, e]


def _weights(g: AttributedGraph, config: DiffusionConfig) -> InfluenceWeights:
    """The LT+/IC+ weights of ``config``'s alphas, kept in ``g.diffusion``
    until other alphas are asked for."""
    weights = g.diffusion.get("weights")
    if weights is None or (weights.alpha1, weights.alpha2) != (config.alpha1, config.alpha2):
        weights = g.diffusion["weights"] = compute_influence_weights(g, config.alpha1, config.alpha2)
    return weights


def _ready(g: AttributedGraph, config: DiffusionConfig) -> tuple[DiffusionConfig, tuple]:
    """``config`` with SIR's automatic beta filled in, and its first chunk of
    runs; both are kept in ``g.diffusion`` under the model's name until a
    config that is not equal asks for that model.  No nodes is
    ``EmptyGraphError``."""
    kept = g.diffusion.get(config.model)
    if kept is None or kept[0] != config:
        _require_nodes(g)
        ready = config
        if config.model == "sir" and config.sir_beta is None:
            ready = replace(config, sir_beta=critical_sir_beta(g))
        kept = g.diffusion[config.model] = (config, ready, next(_chunk_rows(g, ready)))
    return kept[1:]


def influence_spread(g: AttributedGraph, config: DiffusionConfig, seeds) -> DiffusionResult:
    """Mean fraction of activated nodes over independent Monte Carlo runs.

    Run r draws from its own stream ``default_rng([rng_seed, r])``, so the
    counts do not depend on how runs are grouped.  ``max_steps`` caps SIR
    only.  Weights, beta and the first chunk of runs are kept on ``g``, so a
    caller that simulates many seed sets with one config makes them once.
    """
    config, first = _ready(g, config)
    seed_ids = np.flatnonzero(node_mask(g.num_nodes, seeds, "seed"))
    chunks = itertools.chain([first], _chunk_rows(g, config, (first[0].size - 1) // g.num_nodes))
    counts = np.concatenate([_reached_counts(g.num_nodes, *rows, seed_ids, config.max_steps) for rows in chunks])
    spreads = counts / g.num_nodes
    return DiffusionResult(float(spreads.mean()), float(spreads.std()), counts)
