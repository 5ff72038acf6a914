"""Classical non-trainable importance measures used as baselines."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csgraph

from .graph import AttributedGraph
from .scores import ScoreVector


class ConvergenceError(RuntimeError):
    pass


def degree(g: AttributedGraph) -> ScoreVector:
    return ScoreVector(g.in_degrees() + g.out_degrees(), "degree")


def out_degree(g: AttributedGraph) -> ScoreVector:
    return ScoreVector(g.out_degrees(), "out_degree")


def weighted_out_degree(g: AttributedGraph) -> ScoreVector:
    """Sum of cosine similarities over each node's out-edges."""
    sims = g.edge_cosine()
    values = np.bincount(g.edge_src, weights=sims, minlength=g.num_nodes)
    return ScoreVector(values, "weighted_out_degree")


def relative_out_degree(g: AttributedGraph, tuning: float = 0.5) -> ScoreVector:
    """Opsahl-style blend: out_degree^(1-tuning) * weighted_out_degree^tuning.

    Nodes with no out-edges score 0.  Negative weighted sums (possible with
    signed features) are clamped to 0 so the fractional power stays real.
    """
    if not 0.0 <= tuning <= 1.0:
        raise ValueError("tuning must lie in [0, 1]")
    od = g.out_degrees().astype(np.float64)
    wd = np.maximum(weighted_out_degree(g).values, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(od > 0, od ** (1.0 - tuning) * wd**tuning, 0.0)
    values = np.nan_to_num(values, nan=0.0)
    # 0^0 := 1 at the boundaries so the blend degenerates to the pure measures
    if tuning == 0.0:
        values = np.where(od > 0, od, 0.0)
    elif tuning == 1.0:
        values = np.where(od > 0, wd, 0.0)
    return ScoreVector(values, f"relative_out_degree[{tuning}]")


def pagerank(
    g: AttributedGraph,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> ScoreVector:
    """Power iteration with uniform teleport; dangling mass is spread
    uniformly.  Scores sum to 1."""
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie in (0, 1)")
    n = g.num_nodes
    if n == 0:
        return ScoreVector(np.zeros(0), "pagerank")
    out_deg = g.out_degrees().astype(np.float64)
    dangling = out_deg == 0
    r = np.full(n, 1.0 / n)
    src, dst = g.edge_src, g.edge_dst
    inv_out = np.where(dangling, 0.0, 1.0 / np.maximum(out_deg, 1.0))
    converged = False
    for _ in range(max_iter):
        contrib = r * inv_out
        flow = np.bincount(dst, weights=contrib[src], minlength=n)
        r_new = damping * (flow + r[dangling].sum() / n) + (1.0 - damping) / n
        if np.abs(r_new - r).sum() < tol:
            r = r_new
            converged = True
            break
        r = r_new
    sv = ScoreVector(r, "pagerank")
    sv.converged = converged  # best iterate is still returned when False
    return sv


def katz(
    g: AttributedGraph,
    attenuation: float = 0.005,
    tol: float = 1e-12,
    max_iter: int = 1000,
    normalize: bool = True,
) -> ScoreVector:
    """Katz centrality x = sum_{k>=1} a^k (A^T)^k 1 by fixed-point iteration.

    Divergence (increment norm growing for 10 consecutive iterations) raises
    ConvergenceError with advice to lower the attenuation.
    """
    n = g.num_nodes
    src, dst = g.edge_src, g.edge_dst
    x = np.zeros(n)
    growth_streak = 0
    prev_delta = np.inf
    for _ in range(max_iter):
        at_x = np.bincount(dst, weights=1.0 + x[src], minlength=n)
        x_new = attenuation * at_x
        delta = np.linalg.norm(x_new - x)
        if delta > prev_delta:
            growth_streak += 1
            if growth_streak >= 10:
                raise ConvergenceError(
                    f"katz iteration diverges at attenuation={attenuation}; "
                    "use a smaller attenuation (below 1/spectral-radius)"
                )
        else:
            growth_streak = 0
        prev_delta = delta
        x = x_new
        if delta < tol:
            break
    if normalize:
        norm = np.linalg.norm(x)
        if norm > 0:
            x = x / norm
        elif n > 0:  # empty-edge graph: uniform scores
            x = np.full(n, 1.0 / np.sqrt(n))
    return ScoreVector(x, "katz")


# source rows per shortest_path call, so one chunk holds about 2^20 distances
_CLOSENESS_CHUNK_CELLS = 1 << 20


def closeness(g: AttributedGraph) -> ScoreVector:
    """Out-direction closeness with the Wasserman-Faust correction for
    graphs that are not strongly connected."""
    n = g.num_nodes
    adj = g.adjacency()
    values = np.zeros(n)
    step = max(1, _CLOSENESS_CHUNK_CELLS // max(n, 1))
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        dist = csgraph.shortest_path(adj, unweighted=True, indices=rows)
        reached = np.isfinite(dist)
        r = reached.sum(axis=1) - 1  # nodes reached, the source excluded
        total = np.where(reached, dist, 0.0).sum(axis=1)
        hit = total > 0
        values[rows[hit]] = (r[hit] / (n - 1)) * (r[hit] / total[hit])
    return ScoreVector(values, "closeness")


def betweenness(g: AttributedGraph) -> ScoreVector:
    """Exact directed betweenness by Brandes' accumulation, normalized by
    (N-1)(N-2)."""
    n = g.num_nodes
    values = np.zeros(n)
    for s in range(n):
        # single-source shortest-path counting
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        order = [s]
        preds: list[list[int]] = [[] for _ in range(n)]
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u in g.out_neighbors(v):
                    u = int(u)
                    if dist[u] < 0:
                        dist[u] = d
                        nxt.append(u)
                        order.append(u)
                    if dist[u] == d:
                        sigma[u] += sigma[v]
                        preds[u].append(v)
            frontier = nxt
        delta = np.zeros(n)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                values[w] += delta[w]
    if n > 2:
        values /= (n - 1) * (n - 2)
    return ScoreVector(values, "betweenness")


def voterank(g: AttributedGraph, k: int) -> tuple[list[int], ScoreVector]:
    """Iterative vote-based election of k influential nodes.

    A node's vote score is the summed voting ability of its out-neighbors
    (the nodes it supplies information to).  After each election the winner's
    ability drops to zero and each of its out-neighbors loses 1/<k_out> of
    ability, floored at 0.  Returns the elected nodes in election order plus
    the final vote scores (elected nodes lifted above everyone else so a
    single descending sort reproduces the full ranking).
    """
    n = g.num_nodes
    if k > n:
        raise ValueError(f"k={k} exceeds node count {n}")
    avg_out = g.num_edges / n if n else 0.0
    suppression = 1.0 / avg_out if avg_out > 0 else 0.0
    ability = np.ones(n)
    elected: list[int] = []
    elected_mask = np.zeros(n, dtype=bool)
    src, dst = g.edge_src, g.edge_dst

    def votes():
        # weighted bincount of an empty edge list is int64, which cannot hold -inf
        return np.bincount(src, weights=ability[dst], minlength=n).astype(np.float64, copy=False)

    for _ in range(k):
        scores = votes()
        scores[elected_mask] = -np.inf
        winner = int(np.argmax(scores))  # argmax ties resolve to smallest id
        elected.append(winner)
        elected_mask[winner] = True
        ability[winner] = 0.0
        for u in g.out_neighbors(winner):
            ability[u] = max(0.0, ability[u] - suppression)
    final = votes()
    final[elected_mask] = 0.0
    # lift elected nodes above all remaining scores, preserving election order
    lift = final.max(initial=0.0) + 1.0
    for pos, node in enumerate(elected):
        final[node] = lift + (k - pos)
    return elected, ScoreVector(final, f"voterank[{k}]")


# exact all-pairs traversals become impractical beyond this many nodes
GLOBAL_MEASURE_NODE_BUDGET = 50_000
