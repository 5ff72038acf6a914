import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pine.graph import (
    DimensionError,
    GraphFormatError,
    build_graph,
    induced_subgraph,
    largest_weak_component,
    load_features,
    load_graph,
    subgraph_by_edge_type,
    weak_components,
    write_features_binary,
)

from conftest import graph_from_pairs, random_graph, small_digraphs, to_networkx, with_degenerate_graphs


def write_edges(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def write_csv(tmp_path, rows, name="features.csv"):
    path = tmp_path / name
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
    return path


class TestLoadGraph:
    def test_basic_triangle(self, tmp_path):
        e = write_edges(tmp_path, "0 1\n1 2\n0 2\n")
        f = write_csv(tmp_path, [[1, 0], [0, 1], [1, 1]])
        g = load_graph(e, f)
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.in_degrees()[2] == 2
        assert g.feature_dim == 2

    def test_duplicate_edges_collapse(self, tmp_path):
        e = write_edges(tmp_path, "0 1\n0 1\n")
        g = load_graph(e)
        assert g.num_edges == 1
        assert g.collapsed_duplicates == 1

    def test_self_loop_dropped_with_counter(self, tmp_path):
        e = write_edges(tmp_path, "0 0\n0 1\n")
        g = load_graph(e)
        assert g.num_edges == 1
        assert g.dropped_self_loops == 1

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        e = write_edges(tmp_path, "# header\n\n0 1\n")
        assert load_graph(e).num_edges == 1

    def test_malformed_line_reports_lineno(self, tmp_path):
        e = write_edges(tmp_path, "0 1\nbogus\n")
        with pytest.raises(GraphFormatError, match=":2"):
            load_graph(e)

    def test_feature_count_mismatch(self, tmp_path):
        e = write_edges(tmp_path, "0 1\n1 2\n")
        f = write_csv(tmp_path, [[1.0], [2.0]])
        with pytest.raises(DimensionError):
            load_graph(e, f)

    def test_reverse_edges(self, tmp_path):
        e = write_edges(tmp_path, "5 7\n")
        g = load_graph(e, reverse_edges=True)
        # ids densified: 5 -> 0, 7 -> 1; reversed so 1 -> 0
        assert g.out_degrees().tolist() == [0, 1]
        assert g.id_map == ["5", "7"]

    def test_binary_feature_roundtrip(self, tmp_path):
        feats = np.arange(12, dtype=np.float32).reshape(4, 3)
        path = tmp_path / "f.bin"
        write_features_binary(path, feats)
        loaded = load_features(path, expected_nodes=4)
        assert np.allclose(loaded, feats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("binary", [False, True])
    def test_non_finite_feature_names_row(self, tmp_path, bad, binary):
        feats = np.ones((3, 2))
        feats[1, 1] = bad
        if binary:
            path = tmp_path / "f.bin"
            write_features_binary(path, feats)
        else:
            path = write_csv(tmp_path, feats.tolist())
        with pytest.raises(GraphFormatError, match="row 2 "):
            load_features(path)

    def test_edge_list_roundtrip_isomorphic(self, tmp_path, rng):
        g = random_graph(20, 0.2, rng)
        out = tmp_path / "rt.txt"
        g.write_edge_list(out)
        g2 = load_graph(out, num_nodes=g.num_nodes)
        assert g2.num_edges == g.num_edges
        assert np.array_equal(g2.edge_src, g.edge_src)
        assert np.array_equal(g2.edge_dst, g.edge_dst)

    def test_in_degree_matches_file_after_dedup(self, tmp_path):
        e = write_edges(tmp_path, "0 2\n1 2\n0 2\n2 1\n")
        g = load_graph(e)
        assert g.in_degrees().tolist() == [0, 1, 2]


class TestAdjacency:
    def test_in_out_describe_same_edges(self, rng):
        g = random_graph(30, 0.15, rng)
        from_out = set()
        for j in range(g.num_nodes):
            for i in g.out_neighbors(j):
                from_out.add((j, int(i)))
        from_in = set()
        for i in range(g.num_nodes):
            for j in g.in_neighbors(i):
                from_in.add((int(j), i))
        assert from_out == from_in == set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))

    def test_neighbor_lists_sorted(self, rng):
        g = random_graph(25, 0.2, rng)
        for v in range(g.num_nodes):
            assert np.all(np.diff(g.in_neighbors(v)) > 0)
            assert np.all(np.diff(g.out_neighbors(v)) > 0)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        g = build_graph(2, [0], [1], [[2.0, 1.0], [2.0, 1.0]])
        assert g.cosine_similarity(0, 1) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        g = build_graph(2, [0], [1], [[1.0, 0.0], [0.0, 1.0]])
        assert g.cosine_similarity(0, 1) == pytest.approx(0.0)

    def test_analytic_value(self):
        g = build_graph(2, [0], [1], [[1.0, 0.0], [1.0, 1.0]])
        assert g.cosine_similarity(0, 1) == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_norm_gives_zero(self):
        g = build_graph(2, [0], [1], [[0.0, 0.0], [1.0, 1.0]])
        assert g.cosine_similarity(0, 1) == 0.0

    @given(st.integers(0, 9), st.integers(0, 9))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        rng = np.random.default_rng(7)
        g = random_graph(10, 0.2, rng, d=5)
        sab = g.cosine_similarity(a, b)
        assert sab == pytest.approx(g.cosine_similarity(b, a))
        assert -1.0 - 1e-12 <= sab <= 1.0 + 1e-12


class TestEdgeCosine:
    @pytest.mark.parametrize("d", [3, 1 << 16])
    def test_matches_pairwise_cosine(self, d, rng):
        # at d = 2^16 endpoint features are gathered four edges at a time
        g0 = random_graph(7, 0.4, rng, d=1)
        feats = rng.normal(size=(7, d))
        feats[2] = 0.0
        g = build_graph(7, g0.edge_src, g0.edge_dst, feats)
        assert g.num_edges > 4 and g.in_degrees()[2] + g.out_degrees()[2] > 0
        expected = [g.cosine_similarity(int(j), int(i)) for j, i in zip(g.edge_src, g.edge_dst)]
        assert np.allclose(g.edge_cosine(), expected, rtol=1e-12, atol=1e-15)

    def test_edgeless(self):
        assert build_graph(3, [], [], np.ones((3, 2))).edge_cosine().shape == (0,)


class TestEdgeTypes:
    def test_select_single_type(self):
        g = build_graph(3, [0, 1], [1, 2], np.ones((3, 1)), edge_type=[0, 1])
        sub = subgraph_by_edge_type(g, 0)
        assert sub.num_nodes == 3
        assert sub.num_edges == 1
        assert (sub.edge_src[0], sub.edge_dst[0]) == (0, 1)

    def test_unknown_type_errors(self):
        g = build_graph(3, [0], [1], np.ones((3, 1)), edge_type=[0])
        with pytest.raises(ValueError, match="unknown edge type"):
            subgraph_by_edge_type(g, 9)

    def test_per_type_sizes_sum_to_total(self, rng):
        g = random_graph(15, 0.3, rng, typed=3)
        total = sum(subgraph_by_edge_type(g, t).num_edges for t in np.unique(g.edge_type))
        assert total == g.num_edges


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class TestLargestWeakComponent:
    def test_two_components(self):
        g = build_graph(5, [0, 2, 3], [1, 3, 4], np.ones((5, 1)))
        sub = largest_weak_component(g)
        assert sub.num_nodes == 3
        assert sub.id_map == ["2", "3", "4"]

    def test_connected_graph_identity(self):
        g = build_graph(3, [0, 1, 2], [1, 2, 0], np.ones((3, 1)))
        sub = largest_weak_component(g)
        assert sub.num_nodes == 3
        assert sub.num_edges == 3

    def test_matches_union_find_oracle(self, rng):
        g = random_graph(100, 0.012, rng)
        uf = UnionFind(g.num_nodes)
        for u, v in zip(g.edge_src, g.edge_dst):
            uf.union(int(u), int(v))
        roots = [uf.find(v) for v in range(g.num_nodes)]
        sizes = {}
        for r in roots:
            sizes[r] = sizes.get(r, 0) + 1
        assert largest_weak_component(g).num_nodes == max(sizes.values())

    def test_size_tie_takes_smallest_id(self):
        # components {0,1} and {2,3}, same size
        g = build_graph(4, [0, 2], [1, 3], np.ones((4, 1)))
        sub = largest_weak_component(g)
        assert sub.id_map == ["0", "1"]

    @given(small_digraphs())
    @with_degenerate_graphs
    @settings(max_examples=60, deadline=None)
    def test_components_match_networkx(self, case):
        g = graph_from_pairs(*case)
        expected = {frozenset(c) for c in nx.weakly_connected_components(to_networkx(g))}
        labels = weak_components(g)
        assert {frozenset(np.flatnonzero(labels == c).tolist()) for c in set(labels.tolist())} == expected
        # labels count up in order of each component's smallest node: the tie rule
        ids, first = np.unique(labels, return_index=True)
        assert np.array_equal(ids, np.arange(len(expected)))
        assert np.all(np.diff(first) > 0)
        assert largest_weak_component(g).num_nodes == max(map(len, expected), default=0)


class TestInducedSubgraph:
    def test_features_and_edges_remapped(self, rng):
        g = random_graph(10, 0.3, rng)
        nodes = np.array([2, 5, 7])
        sub = induced_subgraph(g, nodes)
        assert np.allclose(sub.features, g.features[nodes])
        for u, v in zip(sub.edge_src, sub.edge_dst):
            assert (int(nodes[u]), int(nodes[v])) in set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
