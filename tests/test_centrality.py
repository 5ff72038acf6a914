import tracemalloc
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import csgraph

from pine import centrality as ct
from pine.diffusion import DiffusionConfig, influence_spread
from pine.graph import AttributedGraph, build_graph, induced_subgraph, largest_weak_component, subgraph_by_edge_type
from pine.pipeline import METHODS, PipelineConfig, benchmark, compute_method_scores, run_pipeline
from pine.scores import ScoreVector
from pine.split import split_edges

from conftest import (
    cosine_similarity,
    graph_from_pairs,
    out_neighbors,
    random_graph,
    small_digraphs,
    to_networkx,
    with_degenerate_graphs,
)


def path3():
    return build_graph(3, [0, 1], [1, 2], np.ones((3, 2)))


def reverse(g):
    """``g`` with every edge turned round: PageRank and Katz score the graph
    in the direction spread travels, which their in-edge oracles read on it."""
    return build_graph(g.num_nodes, g.edge_dst, g.edge_src, g.features)


def dense_adjacency(g):
    a = np.zeros((g.num_nodes, g.num_nodes))
    a[g.edge_src, g.edge_dst] = 1.0
    return a


class TestDegreeFamily:
    def test_degree_path(self):
        assert ct.degree(path3()).values.tolist() == [1, 2, 1]

    def test_degree_empty(self):
        g = build_graph(4, [], [], np.ones((4, 1)))
        assert ct.degree(g).values.tolist() == [0, 0, 0, 0]

    def test_degree_matches_dense_oracle(self, rng):
        g = random_graph(25, 0.2, rng)
        a = dense_adjacency(g)
        assert np.allclose(ct.degree(g).values, a.sum(0) + a.sum(1))

    def test_out_degree_path(self):
        assert ct.out_degree(path3()).values.tolist() == [1, 1, 0]

    def test_out_degree_star(self):
        g = build_graph(6, [0] * 5, [1, 2, 3, 4, 5], np.ones((6, 1)))
        assert ct.out_degree(g).values.tolist() == [5, 0, 0, 0, 0, 0]

    def test_out_degree_matches_row_sums(self, rng):
        g = random_graph(25, 0.2, rng)
        assert np.allclose(ct.out_degree(g).values, dense_adjacency(g).sum(1))


class TestWeightedOutDegree:
    def test_identical_features(self):
        g = build_graph(2, [0], [1], [[1.0, 2.0], [1.0, 2.0]])
        assert np.allclose(ct.weighted_out_degree(g).values, [1.0, 0.0])

    def test_orthogonal_features(self):
        g = build_graph(2, [0], [1], [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(ct.weighted_out_degree(g).values, [0.0, 0.0])

    def test_matches_per_edge_summation(self, rng):
        g = random_graph(10, 0.4, rng)
        expected = np.zeros(g.num_nodes)
        for j in range(g.num_nodes):
            for i in out_neighbors(g, j):
                expected[j] += cosine_similarity(g, j, int(i))
        assert np.allclose(ct.weighted_out_degree(g).values, expected)


class TestRelativeOutDegree:
    def test_tuning_zero_is_out_degree(self, rng):
        g = random_graph(12, 0.3, rng)
        assert np.array_equal(ct.relative_out_degree(g, 0.0).values, ct.out_degree(g).values)

    def test_tuning_one_is_weighted(self, rng):
        # nonnegative features so the weighted sums stay nonnegative
        g = random_graph(12, 0.3, rng)
        g.features = np.abs(g.features)
        assert np.array_equal(
            ct.relative_out_degree(g, 1.0).values,
            np.where(ct.out_degree(g).values > 0, ct.weighted_out_degree(g).values, 0.0),
        )

    def test_geometric_mean_hand_graph(self):
        g = build_graph(4, [0, 0, 1], [1, 2, 3], np.abs(np.random.default_rng(3).normal(size=(4, 3))))
        od = ct.out_degree(g).values
        wd = ct.weighted_out_degree(g).values
        expected = np.where(od > 0, np.sqrt(od * wd), 0.0)
        assert np.allclose(ct.relative_out_degree(g, 0.5).values, expected)

    def test_tuning_out_of_range(self):
        with pytest.raises(ValueError):
            ct.relative_out_degree(path3(), 1.5)


def pagerank_dense_oracle(g, damping=0.85, iters=500):
    n = g.num_nodes
    a = dense_adjacency(g)
    out = a.sum(1)
    t = np.zeros((n, n))
    for j in range(n):
        if out[j] > 0:
            t[j] = a[j] / out[j]
        else:
            t[j] = 1.0 / n
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        r = damping * t.T @ r + (1 - damping) / n
    return r


class TestPageRank:
    def test_two_cycle_symmetry(self):
        g = build_graph(2, [0, 1], [1, 0], np.ones((2, 1)))
        assert np.allclose(ct.pagerank(g).values, [0.5, 0.5])

    def test_isolated_singleton(self):
        g = build_graph(1, [], [], np.ones((1, 1)))
        assert np.allclose(ct.pagerank(g).values, [1.0])

    def test_matches_dense_oracle(self, rng):
        for trial in range(5):
            g = random_graph(5, 0.4, np.random.default_rng(trial))
            mine = ct.pagerank(g, tol=1e-14, max_iter=2000).values
            assert np.allclose(mine, pagerank_dense_oracle(reverse(g)), atol=1e-8)

    def test_sums_to_one_with_floor(self, rng):
        g = random_graph(30, 0.1, rng)
        v = ct.pagerank(g).values
        assert abs(v.sum() - 1.0) < 1e-9
        assert np.all(v >= (1 - 0.85) / g.num_nodes - 1e-12)

    def test_bad_damping(self):
        with pytest.raises(ValueError):
            ct.pagerank(path3(), damping=1.0)

    def test_no_convergence_warns(self):
        g = build_graph(3, [0, 1], [1, 2], np.ones((3, 1)))
        with pytest.warns(RuntimeWarning, match=r"did not converge in 1 iterations \(residual 0\.\d+") as record:
            values = ct.pagerank(g, max_iter=1).values
        assert values.sum() == pytest.approx(1.0)
        assert [w.filename for w in record] == [__file__]  # the caller of pagerank, not the shared loop

    def test_zero_tol_warns_at_max_iter_without_raising(self):
        # no residual falls below 0, and with damping < 1 the residuals do not keep growing, so the
        # loop runs to max_iter and warns; the growth rule that stops a diverging Katz stays quiet
        g = zipf_hub_graph(n=500, m=6000, seed=1)
        with pytest.warns(RuntimeWarning, match=r"^pagerank did not converge in 3000 iterations \(residual .+, tol 0\)$"):
            values = ct.pagerank(g, tol=0.0, max_iter=3000).values
        assert values.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("damping", [0.5, 0.85])
    @given(small_digraphs())
    @with_degenerate_graphs
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx(self, damping, case):
        g = graph_from_pairs(*case)
        n = g.num_nodes
        uniform = {v: 1.0 for v in range(n)}
        expected = nx.pagerank(
            to_networkx(g).reverse(), alpha=damping, personalization=uniform, dangling=uniform, tol=1e-14,
            max_iter=10_000,
        )
        mine = ct.pagerank(g, damping=damping, tol=1e-14, max_iter=10_000).values
        assert np.allclose(mine, [expected[v] for v in range(n)], rtol=0, atol=1e-8)


def pagerank_bincount_oracle(g, damping=0.85, tol=1e-9, max_iter=200):
    """``pagerank`` as it was before it iterated one CSR product: each
    iteration scatters ``r / out_degree`` of the sources with ``np.bincount``."""
    n = g.num_nodes
    out_deg = g.out_degrees().astype(np.float64)
    dangling = out_deg == 0
    r = np.full(n, 1.0 / n)
    inv_out = np.where(dangling, 0.0, 1.0 / np.maximum(out_deg, 1.0))
    for _ in range(max_iter):
        contrib = r * inv_out
        flow = np.bincount(g.edge_dst, weights=contrib[g.edge_src], minlength=n)
        r_new = damping * (flow + r[dangling].sum() / n) + (1.0 - damping) / n
        residual = np.abs(r_new - r).sum()
        r = r_new
        if residual < tol:
            break
    return r


def katz_bincount_oracle(g, attenuation=0.005, tol=1e-12, max_iter=1000):
    """``katz`` as it was before it iterated one CSR product, unnormalized;
    the string ``"diverges"`` where it raised ``ConvergenceError``."""
    x, growth_streak, prev_delta = np.zeros(g.num_nodes), 0, np.inf
    for _ in range(max_iter):
        x_new = attenuation * np.bincount(g.edge_dst, weights=1.0 + x[g.edge_src], minlength=g.num_nodes)
        delta = np.linalg.norm(x_new - x)
        growth_streak = growth_streak + 1 if delta > prev_delta else 0
        if growth_streak >= 10:
            return "diverges"
        prev_delta, x = delta, x_new
        if delta < tol:
            break
    return x


def bincount_oracle_cases():
    """Graphs with dangling nodes, hubs, an edgeless graph and a lone node."""
    yield "random", random_graph(40, 0.05, np.random.default_rng(5))
    yield "hubs", zipf_hub_graph(n=500, m=6000, seed=1)
    yield "edgeless", build_graph(4, [], [], np.ones((4, 1)))
    yield "lone-node", build_graph(1, [0], [0], np.ones((1, 1)))
    yield "path", path3()


class TestCsrIterationsBitEqualToBincount:
    @pytest.mark.parametrize("damping, max_iter", [(0.85, 200), (0.5, 200), (0.85, 3)])
    def test_pagerank(self, damping, max_iter):
        for name, g in bincount_oracle_cases():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # max_iter 3 stops before convergence
                values = ct.pagerank(g, damping=damping, max_iter=max_iter).values
            expected = pagerank_bincount_oracle(reverse(g), damping=damping, max_iter=max_iter)
            assert np.array_equal(values.view(np.int64), expected.view(np.int64)), name

    @pytest.mark.parametrize("attenuation", [0.005, 0.05, 0.3, 2.0])
    def test_katz(self, attenuation):
        # 0.3 and 2.0 diverge on the graphs with cycles
        outcomes = set()
        for name, g in [*bincount_oracle_cases(), ("empty", build_graph(0, [], [], np.ones((0, 1))))]:
            expected = katz_bincount_oracle(reverse(g), attenuation)
            if isinstance(expected, str):
                with pytest.raises(ct.ConvergenceError, match="diverges"):
                    ct.katz(g, attenuation=attenuation, normalize=False)
            else:
                values = ct.katz(g, attenuation=attenuation, normalize=False).values
                assert np.array_equal(values.view(np.int64), expected.view(np.int64)), name
            outcomes.add(isinstance(expected, str))
        assert outcomes == ({False, True} if attenuation >= 0.3 else {False})


class TestKatz:
    def test_empty_graph_uniform(self):
        g = build_graph(4, [], [], np.ones((4, 1)))
        assert np.allclose(ct.katz(g).values, 0.5)

    def test_one_term_series(self):
        g = build_graph(2, [0], [1], np.ones((2, 1)))
        assert np.allclose(ct.katz(g, 0.1, normalize=False).values, [0.1, 0.0])  # the edge's one walk leaves 0

    def test_matches_dense_solve(self, rng):
        # 6-node DAG: x = (I - a A^T)^{-1} a A^T 1
        g = random_graph(6, 0.35, rng)
        alpha = 0.05
        at = dense_adjacency(reverse(g)).T
        x = np.linalg.solve(np.eye(6) - alpha * at, alpha * at @ np.ones(6))
        mine = ct.katz(g, alpha, tol=1e-15, max_iter=5000, normalize=False).values
        assert np.allclose(mine, x, atol=1e-8)

    @pytest.mark.parametrize("attenuation", [np.nan, 0.0, -0.1, np.inf, -np.inf])
    def test_attenuation_outside_open_range_rejected(self, attenuation):
        # NaN and 0 used to give uniform scores, -0.1 all-negative ones
        g = build_graph(2, [0], [1], np.ones((2, 1)))
        with pytest.raises(ValueError, match="^attenuation must be positive and finite, not "):
            ct.katz(g, attenuation=attenuation)

    def test_no_convergence_warns(self):
        # on the 3-cycle each node's series is a + a^2 + ... = 999; 1000 terms sum to 631.67
        g = build_graph(3, [0, 1, 2], [1, 2, 0], np.ones((3, 1)))
        with pytest.warns(RuntimeWarning, match=r"katz did not converge in 1000 iterations \(last increment 0\.6\d+") as record:
            values = ct.katz(g, attenuation=0.999, normalize=False).values
        assert np.allclose(values, 999.0 * (1.0 - 0.999**1000))
        assert [w.filename for w in record] == [__file__]  # the caller of katz, not the shared loop

    def test_convergence_does_not_warn(self):
        g = build_graph(3, [0, 1, 2], [1, 2, 0], np.ones((3, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = ct.katz(g, attenuation=0.5, normalize=False).values
        assert np.allclose(values, 1.0)

    def test_divergence_detected(self):
        g = build_graph(2, [0, 1], [1, 0], np.ones((2, 1)))
        advice = r"^katz iteration diverges at attenuation=2\.0; use a smaller attenuation \(below 1/spectral-radius\)$"
        with pytest.raises(ct.ConvergenceError, match=advice):
            ct.katz(g, attenuation=2.0)

    @pytest.mark.parametrize("attenuation", [0.005, 0.1])
    @given(small_digraphs())
    @with_degenerate_graphs
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx(self, attenuation, case):
        # networkx's x = (I - a A^T)^-1 1 counts the empty walk, which is 1
        # for every node; the series here starts at walks of length 1.  Two
        # isolated padding nodes change no score and keep networkx's solve
        # from squeezing a one-node system to a scalar, which it cannot zip.
        # A graph of 8 nodes has spectral radius at most 7, below 1 / 0.1.
        g = graph_from_pairs(*case)
        n = g.num_nodes
        G = to_networkx(g).reverse()
        G.add_nodes_from([n, n + 1])
        expected = nx.katz_centrality_numpy(G, alpha=attenuation, beta=1, normalized=False)
        mine = ct.katz(g, attenuation=attenuation, normalize=False).values
        assert np.allclose(mine, [expected[v] - 1.0 for v in range(n)], rtol=0, atol=1e-8)

    def test_small_attenuation_ranks_by_in_degree(self, rng):
        # a walk of length 2 weighs a^2, too little to overturn one more in-edge
        g = random_graph(12, 0.25, rng)
        order_katz = np.argsort(ct.katz(reverse(g), 1e-6).values)
        assert np.all(np.diff(g.in_degrees()[order_katz]) >= 0)


@pytest.mark.parametrize("method", [ct.pagerank, ct.katz])
def test_star_hub_ranks_first(method):
    # spread leaves the hub along its 4 out-edges; summed along in-edges, the hub ranked last
    g = build_graph(5, [0, 0, 0, 0], [1, 2, 3, 4], np.ones((5, 1)))
    values = method(g).values
    assert np.all(values[0] > values[1:])


def closeness_bfs_oracle(g):
    n = g.num_nodes
    values = np.zeros(n)
    adj = [set(map(int, out_neighbors(g, v))) for v in range(n)]
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        r = len(dist)
        total = sum(dist.values())
        if r > 1 and total > 0:
            values[s] = ((r - 1) / (n - 1)) * ((r - 1) / total)
    return values


# source rows per shortest_path call: each array of a chunk holds about 2^20
# values, so temporaries stay at a few MB whatever the graph's size
SHORTEST_PATH_CHUNK_CELLS = 1 << 20


def shortest_path_chunks(adj, row_cells: int):
    """Yield (rows, dist) over consecutive runs of source nodes, about
    SHORTEST_PATH_CHUNK_CELLS // row_cells at a time; dist[i, v] is the hop
    distance from rows[i] to v, inf where v is unreached.  ``row_cells`` is
    how many values the caller keeps per source."""
    n = adj.shape[0]
    step = max(1, SHORTEST_PATH_CHUNK_CELLS // max(row_cells, 1))
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        yield rows, csgraph.shortest_path(adj, unweighted=True, indices=rows)


def closeness_shortest_path_oracle(g: AttributedGraph) -> np.ndarray:
    """Out-direction closeness with the Wasserman-Faust correction for
    graphs that are not strongly connected."""
    n = g.num_nodes
    values = np.zeros(n)
    for rows, dist in shortest_path_chunks(g.in_csr().T, n):
        reached = np.isfinite(dist)
        r = reached.sum(axis=1) - 1  # nodes reached, the source excluded
        total = np.where(reached, dist, 0.0).sum(axis=1)
        hit = total > 0
        values[rows[hit]] = (r[hit] / (n - 1)) * (r[hit] / total[hit])
    return values


def block_ring_graph():
    """2700 nodes in 9 blocks of 300, each a ring with random chords, so
    every source reaches its whole block."""
    rng = np.random.default_rng(0)
    size, n = 300, 2700
    ring = np.arange(n)
    chord_src = rng.integers(0, n, 2 * n)
    chord_dst = chord_src - chord_src % size + rng.integers(0, size, chord_src.size)
    src = np.concatenate([ring, chord_src])
    dst = np.concatenate([ring - ring % size + (ring + 1) % size, chord_dst])
    return build_graph(n, src, dst, np.ones((n, 1)))


def random_typed_graphs(seed, count=40):
    """Graphs of up to 39 nodes with cycles, isolated nodes and parallel
    edges of two types."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(0, 40))
        m = int(rng.integers(0, 3 * n + 1))
        src, dst = rng.integers(0, max(n, 1), (2, m))
        yield build_graph(n, src, dst, np.ones((n, 1)), edge_type=rng.integers(0, 2, m))


def traced_peak_bytes(measure, g):
    tracemalloc.start()
    try:
        measure(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCloseness:
    def test_path_head(self):
        v = ct.closeness(path3()).values
        # node 0 reaches {1, 2} at distances {1, 2}
        assert v[0] == pytest.approx((2 / 2) * (2 / 3))
        assert v[2] == 0.0

    def test_isolated_node(self):
        g = build_graph(3, [0], [1], np.ones((3, 1)))
        assert ct.closeness(g).values[2] == 0.0

    def test_matches_bfs_oracle(self, rng):
        g = random_graph(50, 0.06, rng)
        assert np.allclose(ct.closeness(g).values, closeness_bfs_oracle(g))

    @given(small_digraphs())
    @with_degenerate_graphs
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, case):
        # networkx measures distances into a node; the reverse graph turns
        # them into distances out of it
        g = graph_from_pairs(*case)
        expected = nx.closeness_centrality(to_networkx(g).reverse(), wf_improved=True)
        assert np.array_equal(ct.closeness(g).values, [expected[v] for v in range(g.num_nodes)])

    @pytest.mark.parametrize("chunk_cells", [1, 60, 1 << 20])
    @given(small_digraphs())
    @with_degenerate_graphs
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_to_shortest_path_oracle(self, chunk_cells, case):
        g = graph_from_pairs(*case)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ct, "_CHUNK_CELLS", chunk_cells)
            values = ct.closeness(g).values
        assert np.array_equal(values.view(np.int64), closeness_shortest_path_oracle(g).view(np.int64))

    @pytest.mark.parametrize("chunk_cells", [1, 60, 1 << 20])
    def test_bit_equal_to_shortest_path_oracle_on_random_graphs(self, chunk_cells, monkeypatch):
        # cycles, isolated nodes and parallel edges of two types; the small
        # budgets split the sources over many chunks
        monkeypatch.setattr(ct, "_CHUNK_CELLS", chunk_cells)
        for g in random_typed_graphs(seed=chunk_cells):
            expected = closeness_shortest_path_oracle(g)
            assert np.array_equal(ct.closeness(g).values.view(np.int64), expected.view(np.int64))

    def test_peak_memory_bounded_by_chunk_budget(self):
        # an N x N distance matrix alone would take 58 MB; each array of a
        # chunk holds about _CHUNK_CELLS values
        peak = traced_peak_bytes(ct.closeness, block_ring_graph())
        assert peak < 16 * ct._CHUNK_CELLS  # bytes: two int64 arrays of a chunk


def betweenness_enumeration_oracle(g):
    """Brute force: enumerate all shortest paths between every ordered pair."""
    import itertools

    n = g.num_nodes
    adj = [list(map(int, out_neighbors(g, v))) for v in range(n)]

    def all_shortest_paths(s, t):
        # BFS distances, then DFS along decreasing-distance edges
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        if t not in dist:
            return []
        paths = []

        def walk(v, path):
            if v == t:
                paths.append(list(path))
                return
            for u in adj[v]:
                if u in dist and dist[u] == dist[v] + 1 and dist[u] <= dist[t]:
                    path.append(u)
                    walk(u, path)
                    path.pop()

        walk(s, [s])
        return paths

    values = np.zeros(n)
    for s, t in itertools.permutations(range(n), 2):
        paths = all_shortest_paths(s, t)
        if not paths:
            continue
        for path in paths:
            for v in path[1:-1]:
                values[v] += 1.0 / len(paths)
    if n > 2:
        values /= (n - 1) * (n - 2)
    return values


def betweenness_loop_oracle(g):
    """Brandes' accumulation one source at a time in Python loops: the
    floating-point order that ct.betweenness keeps."""
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
                for u in out_neighbors(g, v):
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
    return values


class TestBetweenness:
    def test_path_midpoint(self):
        assert np.allclose(ct.betweenness(path3()).values, [0.0, 0.5, 0.0])

    def test_complete_bidirected_triangle(self):
        g = build_graph(3, [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1], np.ones((3, 1)))
        assert np.allclose(ct.betweenness(g).values, 0.0)

    def test_matches_enumeration_oracle(self, rng):
        for trial in range(3):
            g = random_graph(9, 0.25, np.random.default_rng(100 + trial))
            assert np.allclose(ct.betweenness(g).values, betweenness_enumeration_oracle(g), atol=1e-12)

    def test_directed_tree_pair_counting(self, rng):
        # on an out-tree the unique path s->t crosses v iff v is an inner
        # node of that path; count pairs by enumeration
        parent = [None, 0, 0, 1, 1, 2, 5]
        src = [parent[v] for v in range(1, 7)]
        g = build_graph(7, src, list(range(1, 7)), np.ones((7, 1)))
        assert np.allclose(ct.betweenness(g).values, betweenness_enumeration_oracle(g))

    @given(small_digraphs())
    @with_degenerate_graphs
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_to_loop_oracle(self, case):
        g = graph_from_pairs(*case)
        assert np.array_equal(ct.betweenness(g).values, betweenness_loop_oracle(g))

    @pytest.mark.parametrize("chunk_cells", [1, 60, 1 << 20])
    def test_bit_equal_to_loop_oracle_on_random_graphs(self, chunk_cells, monkeypatch):
        # cycles, isolated nodes and parallel edges of two types; the small
        # budgets split the sources over many chunks
        monkeypatch.setattr(ct, "_CHUNK_CELLS", chunk_cells)
        for g in random_typed_graphs(seed=chunk_cells):
            assert np.array_equal(ct.betweenness(g).values, betweenness_loop_oracle(g))

    @given(small_digraphs())
    @with_degenerate_graphs
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, case):
        g = graph_from_pairs(*case)
        expected = nx.betweenness_centrality(to_networkx(g), normalized=True)
        mine = ct.betweenness(g).values
        np.testing.assert_allclose(mine, [expected[v] for v in range(g.num_nodes)], rtol=1e-12, atol=0)

    def test_peak_memory_bounded_by_chunk_budget(self):
        # an N x N distance matrix alone would take 58 MB; each array of a
        # chunk holds about _CHUNK_CELLS values
        peak = traced_peak_bytes(ct.betweenness, block_ring_graph())
        assert peak < 16 * ct._CHUNK_CELLS  # bytes: two float64 arrays of a chunk


def citation_dag(n=2700, m=5400, seed=0):
    """A citation-like DAG: each edge runs from an older node, drawn by a
    Zipf popularity of random age, to a newer one; ids are shuffled, as a
    loader's are.  Each source reaches about 30 nodes."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum((1.0 / np.arange(1, n + 1))[rng.permutation(n)])
    dst = rng.integers(1, n, m)
    src = np.searchsorted(cdf, rng.random(m) * cdf[dst - 1])
    ids = rng.permutation(n)
    return build_graph(n, ids[src], ids[dst], np.ones((n, 1)))


def spy_traversals(monkeypatch):
    """Record each ``_bfs_chunks`` call, and each chunk attempt as
    (sources, yielded) in the order ``_bfs_chunk`` makes them."""
    calls, attempts = [], []
    chunks, chunk = ct._bfs_chunks, ct._bfs_chunk

    def counted_chunks(g):
        calls.append(g)
        return chunks(g)

    def recorded_chunk(sources, *args):
        peak, found = chunk(sources, *args)
        attempts.append((sources.tolist(), found is not None))
        return peak, found

    monkeypatch.setattr(ct, "_bfs_chunks", counted_chunks)
    monkeypatch.setattr(ct, "_bfs_chunk", recorded_chunk)
    return calls, attempts


def assert_path_scores_equal_oracles(g):
    close, between = ct.closeness(g).values, ct.betweenness(g).values
    assert np.array_equal(close.view(np.int64), closeness_shortest_path_oracle(g).view(np.int64))
    assert np.array_equal(between.view(np.int64), betweenness_loop_oracle(g).view(np.int64))


class TestOneTraversal:
    def test_pipeline_and_bench_traverse_once_for_both(self, tmp_path, monkeypatch):
        g = random_graph(40, 0.08, np.random.default_rng(3))
        edges = tmp_path / "edges.txt"
        g.write_edge_list(edges)
        config = tmp_path / "paths.ini"
        config.write_text(
            f"[graph]\nedges = {edges}\n[pipeline]\nmethods = closeness, out_degree, betweenness\n"
            "models = ltp\n[diffusion]\nruns = 5\n"
        )
        calls, _attempts = spy_traversals(monkeypatch)
        run_pipeline(config)
        assert len(calls) == 1
        benchmark(config)
        assert len(calls) == 2  # one more graph loaded, one more traversal

    def test_scores_of_one_graph_traverse_once(self, monkeypatch):
        g = random_graph(30, 0.1, np.random.default_rng(4))
        calls, _attempts = spy_traversals(monkeypatch)
        config = PipelineConfig(edges="")
        for method in ("betweenness", "closeness", "betweenness", "closeness"):
            compute_method_scores(g, method, config, 3)
        assert calls == [g]

    def test_citation_dag_takes_at_most_two_chunks(self, monkeypatch):
        # one chunk per 2^20 // (N + M) sources would take 21 here
        g = citation_dag()
        _calls, attempts = spy_traversals(monkeypatch)
        values = ct.closeness(g).values
        assert [yielded for _sources, yielded in attempts] == [True] * len(attempts)
        assert len(attempts) <= 2
        assert np.array_equal(values.view(np.int64), closeness_shortest_path_oracle(g).view(np.int64))

    def test_halving_retry_bit_equal_to_oracles(self, monkeypatch):
        # a budget of 200 cells: the first chunk of all 40 sources outgrows it
        # and is retried with half of them until 2 fit; chunks that use at
        # most half the budget let the next one grow, and no source is
        # skipped or repeated
        monkeypatch.setattr(ct, "_CHUNK_CELLS", 1600)
        g = random_graph(40, 0.03, np.random.default_rng(5))
        _calls, attempts = spy_traversals(monkeypatch)
        assert_path_scores_equal_oracles(g)
        assert attempts[:5] == [(list(range(size)), size == 2) for size in (40, 20, 10, 5, 2)]
        assert [s for sources, yielded in attempts if yielded for s in sources] == list(range(40))
        assert max(len(sources) for sources, yielded in attempts if yielded) == 8

    def test_one_source_over_budget_still_finishes(self, monkeypatch):
        # a strongly connected ring with chords: every source reaches all 30
        # nodes, past the budget of two cells; two sources are dropped, one
        # goes ahead
        monkeypatch.setattr(ct, "_CHUNK_CELLS", 16)
        ring, chords = np.arange(30), np.random.default_rng(6).integers(0, 30, (2, 30))
        src, dst = np.concatenate([ring, chords[0]]), np.concatenate([(ring + 1) % 30, chords[1]])
        g = build_graph(30, src, dst, np.ones((30, 1)))
        _calls, attempts = spy_traversals(monkeypatch)
        assert_path_scores_equal_oracles(g)
        assert attempts[0] == ([0, 1], False)
        assert attempts[1:] == [([s], True) for s in range(30)]

    @pytest.mark.parametrize("method", ["closeness", "betweenness"])
    def test_returned_scores_are_copies(self, method):
        g = random_graph(30, 0.1, np.random.default_rng(7))
        measure = getattr(ct, method)
        first = measure(g)
        expected = first.values.copy()
        first.values[:] = -1.0
        assert np.array_equal(measure(g).values, expected)
        other = ct.betweenness if method == "closeness" else ct.closeness
        other(g).values[:] = -1.0
        assert np.array_equal(measure(g).values, expected)

    def test_new_graphs_carry_no_path_scores(self):
        rng = np.random.default_rng(8)
        typed = random_graph(40, 0.15, rng, typed=2)
        one_component = build_graph(4, [0, 1, 2], [1, 2, 3], np.ones((4, 1)))
        split = split_edges(typed, rng_seed=0)
        for g in (typed, one_component):
            ct.closeness(g)
            influence_spread(g, DiffusionConfig(model="icp", num_runs=2), [0])
            assert g.path_scores is not None and set(g.diffusion) == {"weights", "icp"}
        made = {
            "subgraph_by_edge_type": subgraph_by_edge_type(typed, int(typed.edge_type[0])),
            "induced_subgraph": induced_subgraph(typed, range(0, 40, 2)),
            "message_graph": split.message_graph(typed),
            "largest_weak_component": largest_weak_component(typed),
            "largest_weak_component of one component": largest_weak_component(one_component),
        }
        for name, g in made.items():
            assert g.path_scores is None and g.diffusion == {}, name
            assert_path_scores_equal_oracles(g)
        assert made["largest_weak_component of one component"].edge_src is one_component.edge_src


def voterank_oracle(g, k):
    """Independent step-by-step simulation of the vote loop."""
    n = g.num_nodes
    ability = {v: 1.0 for v in range(n)}
    out = {v: list(map(int, out_neighbors(g, v))) for v in range(n)}
    suppression = g.num_edges / n
    suppression = 1.0 / suppression if suppression > 0 else 0.0
    elected = []
    for _ in range(k):
        best, best_score = None, -1.0
        for v in range(n):
            if v in elected:
                continue
            score = sum(ability[u] for u in out[v])
            if score > best_score + 1e-15:
                best, best_score = v, score
        elected.append(best)
        ability[best] = 0.0
        for u in out[best]:
            ability[u] = max(0.0, ability[u] - suppression)
    return elected


def voterank_recount_oracle(g: AttributedGraph, k: int) -> tuple[list[int], ScoreVector]:
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
        for u in out_neighbors(g, winner):
            ability[u] = max(0.0, ability[u] - suppression)
    final = votes()
    final[elected_mask] = 0.0
    # lift elected nodes above all remaining scores, preserving election order
    lift = final.max(initial=0.0) + 1.0
    for pos, node in enumerate(elected):
        final[node] = lift + (k - pos)
    return elected, ScoreVector(final)


def assert_voterank_bit_equal(g, ks):
    for k in ks:
        elected, sv = ct.voterank(g, k)
        expected, oracle_sv = voterank_recount_oracle(g, k)
        assert elected == expected, k
        assert np.array_equal(sv.values.view(np.int64), oracle_sv.values.view(np.int64)), k


def zipf_hub_graph(n=2000, m=30000, seed=0, typed=None):
    """Sources drawn by a Zipf law over node ids, so the hubs' out-rows hold
    hundreds of edges; destinations uniform."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, n + 1)
    src = rng.choice(n, size=m, p=p / p.sum())
    dst = rng.integers(0, n, m)
    etype = rng.integers(0, typed, m) if typed else None
    return build_graph(n, src, dst, np.ones((n, 1)), edge_type=etype)


class TestVoteRank:
    def test_star_center_first(self):
        g = build_graph(11, [0] * 10, list(range(1, 11)), np.ones((11, 1)))
        elected, _ = ct.voterank(g, 1)
        assert elected == [0]

    def test_two_disjoint_stars(self):
        src = [0] * 10 + [11] * 3
        dst = list(range(1, 11)) + [12, 13, 14]
        g = build_graph(15, src, dst, np.ones((15, 1)))
        elected, _ = ct.voterank(g, 2)
        assert set(elected) == {0, 11}

    def test_matches_simulation_oracle(self, rng):
        g = random_graph(20, 0.15, rng)
        elected, _ = ct.voterank(g, 3)
        assert elected == voterank_oracle(g, 3)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            ct.voterank(path3(), 10)

    def test_edgeless_graph_elects_by_id(self):
        g = build_graph(4, [], [], np.ones((4, 1)))
        elected, sv = ct.voterank(g, 2)
        assert elected == [0, 1]
        assert sv.ranking()[:2].tolist() == elected

    def test_negative_k_names_k(self):
        with pytest.raises(ValueError, match=r"k=-2"):
            ct.voterank(path3(), -2)

    @given(small_digraphs())
    @with_degenerate_graphs
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_recount_oracle(self, case):
        g = graph_from_pairs(*case)
        assert_voterank_bit_equal(g, range(g.num_nodes + 1))

    @pytest.mark.parametrize(
        "n, src, dst",
        [
            (6, [], []),  # edgeless: every vote 0
            (7, list(range(7)), [1, 2, 3, 4, 5, 6, 0]),  # directed cycle: every vote 1
            (9, [a for a in range(4) for _ in range(5)], [b for _ in range(4) for b in range(4, 9)]),  # K(4,5)
            (8, [a for a in range(4) for _ in range(4)] + [b for b in range(4, 8) for _ in range(4)],
             [b for _ in range(4) for b in range(4, 8)] + [a for _ in range(4, 8) for a in range(4)]),  # K(4,4) both ways
        ],
        ids=["edgeless", "cycle", "bipartite", "bipartite-both-ways"],
    )
    def test_tied_votes_bit_equal_to_recount_oracle(self, n, src, dst):
        g = build_graph(n, src, dst, np.ones((n, 1)))
        assert_voterank_bit_equal(g, range(n + 1))

    def test_hub_rows_bit_equal_to_recount_oracle(self):
        # rows of 8 or more terms: a pairwise sum would round differently
        g = zipf_hub_graph()
        assert np.sort(g.out_degrees())[-50:].min() >= 8
        assert_voterank_bit_equal(g, [g.num_nodes])

    def test_parallel_typed_edges_bit_equal_to_recount_oracle(self):
        # edges of two types between one pair: the winner suppresses that
        # out-neighbor once per edge
        g = zipf_hub_graph(n=300, m=3000, seed=1, typed=2)
        assert g.num_edges > np.unique(g.edge_src * g.num_nodes + g.edge_dst).size
        assert_voterank_bit_equal(g, [g.num_nodes])

    @given(small_digraphs())
    @with_degenerate_graphs
    @settings(max_examples=100, deadline=None)
    def test_starts_with_networkx(self, case):
        # networkx stops electing once every vote score is 0; this one
        # elects all k
        g = graph_from_pairs(*case)
        k = g.num_nodes
        expected = nx.voterank(to_networkx(g), k)
        assert ct.voterank(g, k)[0][: len(expected)] == expected

    def test_score_vector_ranks_elected_first(self, rng):
        g = random_graph(15, 0.2, rng)
        elected, sv = ct.voterank(g, 4)
        assert sv.ranking()[:4].tolist() == elected


class TestPermutationEquivariance:
    @pytest.mark.parametrize("measure", ["degree", "out_degree", "weighted_out_degree"])
    def test_relabel_permutes_scores(self, measure, rng):
        g = random_graph(12, 0.3, rng)
        perm = rng.permutation(12)
        g2 = build_graph(12, perm[g.edge_src], perm[g.edge_dst], g.features[np.argsort(perm)])
        fn = getattr(ct, measure)
        assert np.allclose(fn(g).values, fn(g2).values[perm])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("target", [m for m in METHODS if m != "pine"] + ["largest_weak_component"])
def test_empty_and_single_node_graphs(target, n):
    g = build_graph(n, [], [], np.ones((n, 2)))
    if target == "largest_weak_component":
        assert largest_weak_component(g).num_nodes == n
    else:
        assert len(compute_method_scores(g, target, PipelineConfig(edges=""), seed_count=n)) == n
