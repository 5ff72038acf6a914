import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from pine import centrality as ct
from pine.graph import build_graph, largest_weak_component
from pine.pipeline import METHODS, PipelineConfig, compute_method_scores

from conftest import graph_from_pairs, random_graph, small_digraphs, to_networkx, with_degenerate_graphs


def path3():
    return build_graph(3, [0, 1], [1, 2], np.ones((3, 2)))


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
            for i in g.out_neighbors(j):
                expected[j] += g.cosine_similarity(j, int(i))
        assert np.allclose(ct.weighted_out_degree(g).values, expected)


class TestRelativeOutDegree:
    def test_tuning_zero_is_out_degree(self, rng):
        g = random_graph(12, 0.3, rng)
        assert np.allclose(ct.relative_out_degree(g, 0.0).values, ct.out_degree(g).values)

    def test_tuning_one_is_weighted(self, rng):
        # nonnegative features so the weighted sums stay nonnegative
        g = random_graph(12, 0.3, rng)
        g.features = np.abs(g.features)
        assert np.allclose(
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
            assert np.allclose(mine, pagerank_dense_oracle(g), atol=1e-8)

    def test_sums_to_one_with_floor(self, rng):
        g = random_graph(30, 0.1, rng)
        v = ct.pagerank(g).values
        assert abs(v.sum() - 1.0) < 1e-9
        assert np.all(v >= (1 - 0.85) / g.num_nodes - 1e-12)

    def test_bad_damping(self):
        with pytest.raises(ValueError):
            ct.pagerank(path3(), damping=1.0)


class TestKatz:
    def test_empty_graph_uniform(self):
        g = build_graph(4, [], [], np.ones((4, 1)))
        assert np.allclose(ct.katz(g).values, 0.5)

    def test_one_term_series(self):
        g = build_graph(2, [0], [1], np.ones((2, 1)))
        assert np.allclose(ct.katz(g, 0.1, normalize=False).values, [0.0, 0.1])

    def test_matches_dense_solve(self, rng):
        # 6-node DAG: x = (I - a A^T)^{-1} a A^T 1
        g = random_graph(6, 0.35, rng)
        alpha = 0.05
        at = dense_adjacency(g).T
        x = np.linalg.solve(np.eye(6) - alpha * at, alpha * at @ np.ones(6))
        mine = ct.katz(g, alpha, tol=1e-15, max_iter=5000, normalize=False).values
        assert np.allclose(mine, x, atol=1e-8)

    def test_divergence_detected(self):
        g = build_graph(2, [0, 1], [1, 0], np.ones((2, 1)))
        with pytest.raises(ct.ConvergenceError, match="attenuation"):
            ct.katz(g, attenuation=2.0)

    def test_small_attenuation_ranks_by_in_degree(self, rng):
        g = random_graph(12, 0.25, rng)
        indeg = g.in_degrees()
        if len(set(indeg.tolist())) == g.num_nodes:
            order_katz = np.argsort(ct.katz(g, 1e-6).values)
            assert np.array_equal(order_katz, np.argsort(indeg, kind="stable"))


def closeness_bfs_oracle(g):
    n = g.num_nodes
    values = np.zeros(n)
    adj = [set(map(int, g.out_neighbors(v))) for v in range(n)]
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


def betweenness_enumeration_oracle(g):
    """Brute force: enumerate all shortest paths between every ordered pair."""
    import itertools

    n = g.num_nodes
    adj = [list(map(int, g.out_neighbors(v))) for v in range(n)]

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


def voterank_oracle(g, k):
    """Independent step-by-step simulation of the vote loop."""
    n = g.num_nodes
    ability = {v: 1.0 for v in range(n)}
    out = {v: list(map(int, g.out_neighbors(v))) for v in range(n)}
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
