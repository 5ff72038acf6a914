"""Classical non-trainable importance measures used as baselines."""

from __future__ import annotations

import heapq
import warnings

import numpy as np

from .graph import AttributedGraph
from .scores import ScoreVector


class ConvergenceError(RuntimeError):
    pass


def check_parameter(name: str, value: float) -> float:
    """``value``, or ``ValueError`` outside parameter ``name``'s range; NaN is outside every range."""
    holds, rule = {
        "tuning": (0.0 <= value <= 1.0, "must lie in [0, 1]"),
        "damping": (0.0 < value < 1.0, "must lie in (0, 1)"),
        "attenuation": (0.0 < value < np.inf, "must be positive and finite"),
    }[name]
    if not holds:
        raise ValueError(f"{name} {rule}, not {value}")
    return value


def degree(g: AttributedGraph) -> ScoreVector:
    return ScoreVector(g.in_degrees() + g.out_degrees())


def out_degree(g: AttributedGraph) -> ScoreVector:
    return ScoreVector(g.out_degrees())


def weighted_out_degree(g: AttributedGraph) -> ScoreVector:
    """Sum of cosine similarities over each node's out-edges."""
    sims = g.edge_cosine()
    values = np.bincount(g.edge_src, weights=sims, minlength=g.num_nodes)
    return ScoreVector(values)


def relative_out_degree(g: AttributedGraph, tuning: float = 0.5) -> ScoreVector:
    """Opsahl-style blend: out_degree^(1-tuning) * weighted_out_degree^tuning.

    Nodes with no out-edges score 0.  Negative weighted sums (possible with
    signed features) are clamped to 0 so the fractional power stays real;
    with numpy's 0.0**0.0 == 1.0, tuning 0 and 1 give the pure measures.
    """
    check_parameter("tuning", tuning)
    od = g.out_degrees().astype(np.float64)
    wd = np.maximum(weighted_out_degree(g).values, 0.0)
    values = np.where(od > 0, od ** (1.0 - tuning) * wd**tuning, 0.0)
    return ScoreVector(values)


def _fixed_point(step, x, order, tol, max_iter, name, change, diverges):
    """``x`` stepped until the ``order``-norm of the change falls below ``tol``.
    Ten growing changes in a row raise ``ConvergenceError(diverges)``; after
    ``max_iter`` steps the last iterate is returned with a ``RuntimeWarning``
    that gives the last ``change`` and names the caller of ``name``."""
    growth_streak = 0
    delta = np.inf
    for _ in range(max_iter):
        x_new = step(x)
        prev_delta = delta
        delta = np.linalg.norm(x_new - x, order)
        growth_streak = growth_streak + 1 if delta > prev_delta else 0
        if growth_streak >= 10:
            raise ConvergenceError(diverges)
        x = x_new
        if delta < tol:
            return x
    warnings.warn(
        f"{name} did not converge in {max_iter} iterations ({change} {delta:.3g}, tol {tol:g})",
        RuntimeWarning,
        stacklevel=3,
    )
    return x


def pagerank(
    g: AttributedGraph,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> ScoreVector:
    """PageRank in the direction spread travels: that of the graph with its
    edges turned round, so a node gathers rank from the nodes it supplies
    and the nodes with no in-edge are dangling.  Power iteration with uniform
    teleport, to an L1 residual below ``tol``; dangling mass is spread
    uniformly.  Scores sum to 1.  For damping < 1 only rounding could fire
    ``_fixed_point``'s growth rule."""
    check_parameter("damping", damping)
    n = g.num_nodes
    if n == 0:
        return ScoreVector(np.zeros(0))
    in_deg = g.in_degrees().astype(np.float64)
    dangling = in_deg == 0
    inv_in = np.where(dangling, 0.0, 1.0 / np.maximum(in_deg, 1.0))
    outgoing = g.in_csr(inv_in[g.edge_dst]).T  # row j sums r[i] / in_deg[i] over j's out-neighbours i
    return ScoreVector(_fixed_point(
        lambda r: damping * (outgoing @ r + r[dangling].sum() / n) + (1.0 - damping) / n,
        np.full(n, 1.0 / n), 1, tol, max_iter, "pagerank", "residual",
        f"pagerank iteration diverges at damping={damping}",
    ))


def katz(
    g: AttributedGraph,
    attenuation: float = 0.005,
    tol: float = 1e-12,
    max_iter: int = 1000,
    normalize: bool = True,
) -> ScoreVector:
    """Katz centrality x = sum_{k>=1} a^k A^k 1, which counts the walks that
    leave each node (the direction spread travels), by fixed-point iteration
    to an L2 increment below ``tol``.  Divergence raises ConvergenceError with
    advice to lower the attenuation."""
    check_parameter("attenuation", attenuation)
    n = g.num_nodes
    outgoing = g.in_csr().T
    x = _fixed_point(
        lambda x: attenuation * (outgoing @ (1.0 + x)), np.zeros(n), 2, tol, max_iter, "katz", "last increment",
        f"katz iteration diverges at attenuation={attenuation}; use a smaller attenuation (below 1/spectral-radius)",
    )
    if normalize:
        norm = np.linalg.norm(x)
        if norm > 0:
            x = x / norm
        elif n > 0:  # empty-edge graph: uniform scores
            x = np.full(n, 1.0 / np.sqrt(n))
    return ScoreVector(x)


# a chunk's seen matrix holds 4 * _CHUNK_CELLS one-byte flags, and its
# slots, DAG edges and expanded level stay within _CHUNK_CELLS // 8 values,
# so temporaries stay at a few MB whatever the graph's size
_CHUNK_CELLS = 1 << 20


def _bfs_chunks(g: AttributedGraph):
    """Level-synchronous BFS from runs of consecutive sources.  Yields
    (sources, node, row, starts, dag) per chunk.

    A chunk starts with as many sources as a seen matrix of 4 * _CHUNK_CELLS
    flags holds, one row of N per source.  Before a level is expanded, the
    chunk's slots and DAG edges plus the level's out-edges must fit in
    _CHUNK_CELLS // 8; if they do not, the chunk is dropped and retried with
    half its sources.  A one-source chunk always goes ahead.  Later chunks
    keep the step that worked, doubled (up to the matrix's rows) after a
    chunk that held at most half the budget.  So chunks follow the pairs
    they reach.

    Slot s is the pair (sources[row[s]], node[s]): a source and a node it
    reaches.  Slots run by level, then source, then discovery position:
    a level's new nodes in order of first appearance among the previous
    level's out-edges, the queue order of a one-source BFS.  Level d is the
    slot range starts[d]:starts[d+1], and dag[d-1] holds the (tail, head)
    slots of the shortest-path DAG edges into it, in out-edge order.
    """
    n = g.num_nodes
    out_ptr, out_dst = g.out_ptr, g.edge_dst[g.out_perm]
    rows = step = min(max(1, 4 * _CHUNK_CELLS // max(n, 1)), n)
    seen = np.zeros(rows * n, dtype=bool)  # cell row * N + node: reached from the row's source
    lo = 0
    while lo < n:
        sources = np.arange(lo, min(lo + step, n))
        peak, chunk = _bfs_chunk(sources, n, out_ptr, out_dst, seen)
        if chunk is None:
            step = max(1, sources.size // 2)
            continue
        if 2 * peak <= _CHUNK_CELLS // 8:
            step = min(2 * step, rows)
        lo += sources.size
        yield chunk


def _bfs_chunk(sources, n, out_ptr, out_dst, seen):
    """(peak, chunk): the most cells the chunk from ``sources`` held before
    a level was expanded, and the chunk, or None when it outgrew the budget.
    Either way every cell of ``seen`` is unset again."""
    cells = [np.arange(sources.size) * n + sources]  # each level's slots as seen cells
    starts, dag = [0, sources.size], []
    kept = peak = sources.size
    seen[cells[0]] = True
    try:
        while True:
            # every out-edge of the last level, as (tail slot, head cell)
            node = cells[-1] % n
            first = out_ptr[node]
            deg = out_ptr[node + 1] - first
            size = deg.sum()
            peak = max(peak, kept + size)
            if sources.size > 1 and peak > _CHUNK_CELLS // 8:
                return peak, None
            edge = np.arange(size) + np.repeat(first - (np.cumsum(deg) - deg), deg)
            tail = np.repeat(np.arange(starts[-2], starts[-1]), deg)
            cell = np.repeat(cells[-1] - node, deg) + out_dst[edge]
            new = ~seen[cell]  # a DAG edge is exactly an edge whose head is new in its level
            tail, cell = tail[new], cell[new]
            if not cell.size:
                break
            # each new cell once, at its first appearance: tails run by source, then discovery
            order = np.argsort(cell)
            ordered = cell[order]
            change = np.diff(ordered, prepend=-1) != 0  # cells are >= 0
            runs = np.flatnonzero(change)
            by_first = np.argsort(np.minimum.reduceat(order, runs))
            slot_of_run = np.empty(runs.size, dtype=np.int64)
            slot_of_run[by_first] = starts[-1] + np.arange(runs.size)
            head = np.empty(cell.size, dtype=np.int64)
            head[order] = slot_of_run[np.cumsum(change) - 1]
            cells.append(ordered[runs][by_first])
            seen[cells[-1]] = True
            starts.append(starts[-1] + runs.size)
            dag.append((tail, head))
            kept += runs.size + head.size
        row, node = np.divmod(np.concatenate(cells), n)
        return peak, (sources, node, row, np.array(starts), dag)
    finally:
        seen[np.concatenate(cells)] = False  # every cell this chunk set: the next chunk starts unreached


def _path_scores(g: AttributedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Closeness and betweenness values of ``g`` from one pass over
    ``_bfs_chunks``, kept on the graph as ``path_scores``."""
    if g.path_scores is None:
        n = g.num_nodes
        close, between = np.zeros(n), np.zeros(n)
        for sources, node, row, starts, dag in _bfs_chunks(g):
            level = np.repeat(np.arange(starts.size - 1), np.diff(starts))
            r = np.bincount(row, minlength=sources.size) - 1  # nodes reached, the source excluded
            total = np.bincount(row, weights=level, minlength=sources.size)
            hit = total > 0
            close[sources[hit]] = (r[hit] / (n - 1)) * (r[hit] / total[hit])
            _add_dependencies(between, node, row, starts, dag)
        if n > 2:
            between /= (n - 1) * (n - 2)
        g.path_scores = close, between
    return g.path_scores


def _add_dependencies(values, node, row, starts, dag) -> None:
    """Add a chunk's Brandes dependencies into ``values``."""
    sigma = np.zeros(node.size)
    sigma[: starts[1]] = 1.0
    for d in range(1, starts.size - 1):
        tail, head = dag[d - 1]
        by_head = np.argsort(head)[::-1]  # heads in decreasing discovery position
        tail, head = dag[d - 1] = tail[by_head], head[by_head]
        sigma[starts[d] : starts[d + 1]] = np.bincount(
            head - starts[d], weights=sigma[tail], minlength=starts[d + 1] - starts[d]
        )
    delta = np.zeros(node.size)
    for d in range(len(dag), 0, -1):
        tail, head = dag[d - 1]
        # bincount adds in input order: each tail sums its terms as the loop does
        delta[starts[d - 1] : starts[d]] = np.bincount(
            tail - starts[d - 1],
            weights=sigma[tail] / sigma[head] * (1.0 + delta[head]),
            minlength=starts[d] - starts[d - 1],
        )
    # every slot but the sources' own, in source order; add.at adds in index order
    by_source = starts[1] + np.argsort(row[starts[1] :], kind="stable")
    np.add.at(values, node[by_source], delta[by_source])


def closeness(g: AttributedGraph) -> ScoreVector:
    """Out-direction closeness with the Wasserman-Faust correction for
    graphs that are not strongly connected.  A source's reach and distance
    sum are its slot count and level sum in ``_bfs_chunks``; the traversal
    also gives ``betweenness``, and whichever is asked first pays for it."""
    return ScoreVector(_path_scores(g)[0].copy())


def betweenness(g: AttributedGraph) -> ScoreVector:
    """Exact directed betweenness by Brandes' accumulation, normalized by
    (N-1)(N-2).

    Sources go in chunks, and within a chunk level by level over the slots
    and DAG edges of ``_bfs_chunks`` (the traversal ``closeness`` shares).
    Path counts are integers, so their sums are exact in any order.  Each
    node's dependency sums its terms in decreasing discovery position of the
    head, and the sources' dependencies are added into the scores in source
    order: the floating-point order of Brandes' one-source-at-a-time loop,
    so the scores equal that loop's bit for bit.
    """
    return ScoreVector(_path_scores(g)[1].copy())


def voterank(g: AttributedGraph, k: int) -> tuple[list[int], ScoreVector]:
    """Iterative vote-based election of k influential nodes.

    A node's vote score is the summed voting ability of its out-neighbors
    (the nodes it supplies information to).  Each election goes to the
    highest vote, ties to the smallest id.  After it the winner's ability
    drops to zero and each of its out-neighbors loses 1/<k_out> of ability
    (once per parallel edge), floored at 0.  Returns the elected nodes in
    election order plus the final vote scores (elected nodes lifted above
    everyone else so a single descending sort reproduces the full ranking).

    Elections are lazy (CELF): a heap keyed (-vote, id) holds each node's
    vote as of the election it was last summed in, and only a stale entry
    that reaches the top is summed again.  This is exact: abilities only
    fall, and every vote adds its non-negative terms left to right in
    ascending out-neighbor id, the order of a ``bincount`` over the edges.
    Rounded addition is monotone, so a stale vote is never below the
    current one, and a fresh top entry beats every other node's true key.
    Elections and final scores are those of recounting every vote before
    each election, bit for bit.
    """
    n = g.num_nodes
    if k < 0:
        raise ValueError(f"k={k} must be non-negative")
    if k > n:
        raise ValueError(f"k={k} exceeds node count {n}")
    avg_out = g.num_edges / n if n else 0.0
    suppression = 1.0 / avg_out if avg_out > 0 else 0.0
    ability = np.ones(n)
    src, dst = g.edge_src, g.edge_dst
    out_ptr, out_dst = g.out_ptr.tolist(), dst[g.out_perm]

    def votes():
        # weighted bincount of an empty edge list is int64
        return np.bincount(src, weights=ability[dst], minlength=n).astype(np.float64, copy=False)

    heap = list(zip((-votes()).tolist(), range(n)))
    heapq.heapify(heap)
    summed_in = [0] * n  # election each heap entry's vote was summed in
    elected: list[int] = []
    for t in range(k):
        while summed_in[heap[0][1]] != t:
            v = heap[0][1]
            # cumsum adds left to right; np.sum adds rows of 8+ terms pairwise
            row = ability[out_dst[out_ptr[v] : out_ptr[v + 1]]]
            summed_in[v] = t
            heapq.heapreplace(heap, (-float(row.cumsum()[-1]) if row.size else -0.0, v))
        winner = heapq.heappop(heap)[1]
        elected.append(winner)
        ability[winner] = 0.0
        nb = out_dst[out_ptr[winner] : out_ptr[winner + 1]]
        while nb.size:  # a node with c parallel edges from the winner is suppressed c times
            ability[nb] = np.maximum(0.0, ability[nb] - suppression)
            nb = nb[1:][nb[1:] == nb[:-1]]
    final = votes()
    final[elected] = 0.0
    # lift elected nodes above all remaining scores, preserving election order
    lift = final.max(initial=0.0) + 1.0
    for pos, node in enumerate(elected):
        final[node] = lift + (k - pos)
    return elected, ScoreVector(final)


# exact all-pairs traversals become impractical beyond this many nodes
GLOBAL_MEASURE_NODE_BUDGET = 50_000
