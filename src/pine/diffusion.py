"""Attribute-aware propagation models and the Monte Carlo spread estimator.

LT+ and IC+ drive activation with per-edge influence weights that blend a
structural term (1/in-degree of the destination) and a semantic term
(edge-softmax of feature cosine similarities); SIR is the classical
epidemic model run along out-edges.

``run_lt_plus``, ``run_ic_plus`` and ``run_sir`` simulate one cascade step by
step and define the models.  ``influence_spread`` samples the same final
spread through the live-edge equivalence (Kempe, Kleinberg and Tardos, KDD
2003): each run draws a random live subgraph, and the cascade reaches
exactly the nodes reachable from the seeds in it.  Many runs are stacked
into one block-diagonal graph and searched with a single breadth-first
traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

from .graph import AttributedGraph, EmptyGraphError

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


def compute_influence_weights(g: AttributedGraph, alpha1: float = 0.5, alpha2: float = 0.5) -> InfluenceWeights:
    if alpha1 < 0 or alpha2 < 0 or abs(alpha1 + alpha2 - 1.0) > 1e-12:
        raise ValueError("alpha1 and alpha2 must be nonnegative and sum to 1")
    n = g.num_nodes
    in_deg = g.in_degrees().astype(np.float64)
    structural = 1.0 / in_deg[g.edge_dst]

    sims = g.edge_cosine()
    # softmax per destination segment, max-shifted for stability
    seg_max = np.full(n, -np.inf)
    np.maximum.at(seg_max, g.edge_dst, sims)
    exp = np.exp(sims - seg_max[g.edge_dst])
    denom = np.bincount(g.edge_dst, weights=exp, minlength=n)
    semantic = exp / denom[g.edge_dst]
    return InfluenceWeights(structural, semantic, alpha1, alpha2)


@dataclass
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
        if abs(self.alpha1 + self.alpha2 - 1.0) > 1e-12:
            raise ValueError("alpha1 + alpha2 must equal 1")
        if self.sir_beta is not None and not 0.0 <= self.sir_beta <= 1.0:
            raise ValueError("sir_beta must lie in [0, 1]")
        if not 0.0 <= self.sir_gamma <= 1.0:
            raise ValueError("sir_gamma must lie in [0, 1]")
        if self.num_runs < 1:
            raise ValueError("num_runs must be >= 1")


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
    # undirected simple degrees: distinct neighbors in either direction
    n = g.num_nodes
    pairs = np.unique(
        np.stack(
            [np.minimum(g.edge_src, g.edge_dst), np.maximum(g.edge_src, g.edge_dst)],
            axis=1,
        ),
        axis=0,
    )
    deg = np.bincount(pairs[:, 0], minlength=n) + np.bincount(pairs[:, 1], minlength=n)
    k = deg.mean()
    k2 = (deg.astype(np.float64) ** 2).mean()
    if k2 - k <= 0:
        return 1.0
    return float(np.clip(1.5 * k / (k2 - k), 0.0, 1.0))


def _require_nodes(g: AttributedGraph) -> None:
    if g.num_nodes == 0:
        raise EmptyGraphError("graph has no nodes; spread and epidemic threshold are per-node averages")


def _seed_mask(g: AttributedGraph, seeds) -> np.ndarray:
    mask = np.zeros(g.num_nodes, dtype=bool)
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if seeds.size:
        if seeds.min() < 0 or seeds.max() >= g.num_nodes:
            raise ValueError("seed id outside [0, N)")
        mask[seeds] = True
    return mask


def run_lt_plus(g: AttributedGraph, weights: InfluenceWeights, seeds, rng) -> np.ndarray:
    """One linear-threshold cascade; returns the activated node mask.

    Thresholds are drawn uniformly per node from ``rng``; a node activates
    once the summed influence of its active in-neighbors reaches its
    threshold.  Rounds repeat until a full pass adds nothing.
    """
    active = _seed_mask(g, seeds)
    theta = rng.random(g.num_nodes)
    influence = weights.combined
    src, dst = g.edge_src, g.edge_dst
    while True:
        incoming = np.bincount(dst, weights=influence * active[src], minlength=g.num_nodes)
        newly = (~active) & (incoming >= theta)
        if not newly.any():
            return active
        active |= newly


def run_ic_plus(g: AttributedGraph, weights: InfluenceWeights, seeds, rng) -> np.ndarray:
    """One independent-cascade run; each newly activated node gets a single
    activation attempt on each of its inactive out-neighbors."""
    active = _seed_mask(g, seeds)
    influence = weights.combined
    frontier = np.nonzero(active)[0]
    out_ptr, out_perm, dst = g.out_ptr, g.out_perm, g.edge_dst
    while frontier.size:
        next_active = np.zeros(g.num_nodes, dtype=bool)
        for j in frontier:
            edge_ids = out_perm[out_ptr[j] : out_ptr[j + 1]]
            targets = dst[edge_ids]
            open_mask = ~active[targets]
            if not open_mask.any():
                continue
            draws = rng.random(targets.size)
            hits = open_mask & (draws < influence[edge_ids])
            next_active[targets[hits]] = True
        next_active &= ~active
        active |= next_active
        frontier = np.nonzero(next_active)[0]
    return active


def run_sir(
    g: AttributedGraph,
    beta: float,
    gamma: float,
    seeds,
    rng,
    max_steps: int | None = None,
) -> np.ndarray:
    """One SIR run along out-edges; returns the ever-infected mask
    (infected union recovered)."""
    if not 0.0 <= beta <= 1.0 or not 0.0 <= gamma <= 1.0:
        raise ValueError("beta and gamma must lie in [0, 1]")
    infected = _seed_mask(g, seeds)
    recovered = np.zeros(g.num_nodes, dtype=bool)
    out_ptr, out_perm, dst = g.out_ptr, g.out_perm, g.edge_dst
    step = 0
    while infected.any() and (max_steps is None or step < max_steps):
        step += 1
        current = np.nonzero(infected)[0]
        newly = np.zeros(g.num_nodes, dtype=bool)
        for j in current:
            targets = dst[out_perm[out_ptr[j] : out_ptr[j + 1]]]
            susceptible = ~(infected[targets] | recovered[targets])
            if susceptible.any():
                hits = susceptible & (rng.random(targets.size) < beta)
                newly[targets[hits]] = True
        recovers = rng.random(current.size) < gamma
        infected[current[recovers]] = False
        recovered[current[recovers]] = True
        infected |= newly & ~recovered
    return infected | recovered


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


def _live_edge_sampler(g: AttributedGraph, config: DiffusionConfig, weights, beta):
    """Function of a run's RNG returning its live-edge mask in canonical order."""
    n, src, dst = g.num_nodes, g.edge_src, g.edge_dst
    if config.model == "ltp":
        # A node keeps in-edge e when its uniform threshold falls in e's slice
        # [lo, hi) of the node's cumulative in-influence: at most one edge,
        # edge e with probability weight[e].
        hi = _segment_cumsum(weights.combined, g.in_ptr, dst)
        lo = np.zeros_like(hi)
        lo[1:] = hi[:-1]
        lo[g.in_ptr[dst] == np.arange(dst.size)] = 0.0

        def ltp(rng):
            theta = rng.random(n)[dst]
            return (lo <= theta) & (theta < hi)

        return ltp
    if config.model == "icp":
        influence = weights.combined
        return lambda rng: rng.random(dst.size) < influence
    gamma = config.sir_gamma

    def sir(rng):
        # a node infectious for T steps infects each out-neighbour with
        # probability 1 - (1 - beta)^T; with gamma = 0 it never recovers
        period = rng.geometric(gamma, n) if gamma > 0 else np.full(n, np.inf)
        return rng.random(dst.size) < (1.0 - (1.0 - beta) ** period)[src]

    return sir


def _reached_counts(g: AttributedGraph, live: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Nodes reachable from the seeds in each row's live subgraph, seeds
    included.  ``live`` is a (runs, M) mask in out-CSR order."""
    n = g.num_nodes
    runs = live.shape[0]
    root = runs * n  # super-source with an edge to every run's seeds
    out_src, out_dst = g.edge_src[g.out_perm], g.edge_dst[g.out_perm]
    run, e = np.nonzero(live)  # row-major, so sorted by (run, source)
    indptr = np.zeros(root + 2, dtype=np.int64)
    np.cumsum(np.bincount(run * n + out_src[e], minlength=root), out=indptr[1:-1])
    indptr[-1] = indptr[-2] + runs * seeds.size
    indices = np.concatenate([run * n + out_dst[e], (np.arange(runs)[:, None] * n + seeds).ravel()])
    adj = sparse.csr_matrix((np.ones(indices.size), indices, indptr), shape=(root + 1, root + 1))
    order = breadth_first_order(adj, root, directed=True, return_predecessors=False)
    return np.bincount(order // n, minlength=runs + 1)[:runs]


def influence_spread(g: AttributedGraph, config: DiffusionConfig, seeds) -> DiffusionResult:
    """Mean fraction of activated nodes over independent Monte Carlo runs.

    Run r draws from its own stream ``default_rng([rng_seed, r])``, so the
    counts do not depend on how runs are grouped.  SIR with ``max_steps``
    set runs the step-wise simulator, since a step cap has no live-edge form.
    """
    _require_nodes(g)
    seed_ids = np.flatnonzero(_seed_mask(g, seeds))
    weights = None
    beta = config.sir_beta
    if config.model in ("ltp", "icp"):
        weights = compute_influence_weights(g, config.alpha1, config.alpha2)
    elif beta is None:
        beta = critical_sir_beta(g)

    def stream(r):
        return np.random.default_rng([config.rng_seed, r])

    if config.model == "sir" and config.max_steps is not None:
        counts = np.array([
            run_sir(g, beta, config.sir_gamma, seed_ids, stream(r), config.max_steps).sum()
            for r in range(config.num_runs)
        ], dtype=np.int64)
    else:
        sample = _live_edge_sampler(g, config, weights, beta)
        chunk = max(1, CHUNK_BUDGET // (g.num_nodes + g.num_edges))
        counts = np.empty(config.num_runs, dtype=np.int64)
        for start in range(0, config.num_runs, chunk):
            runs = range(start, min(start + chunk, config.num_runs))
            live = np.stack([sample(stream(r)) for r in runs])
            counts[runs.start : runs.stop] = _reached_counts(g, live[:, g.out_perm], seed_ids)
    spreads = counts / g.num_nodes
    return DiffusionResult(float(spreads.mean()), float(spreads.std()), counts)
