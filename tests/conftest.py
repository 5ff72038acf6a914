import importlib.util
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, strategies as st

from pine.graph import build_graph


def random_graph(n, edge_prob, rng, d=4, typed=None):
    """Erdos-Renyi style directed graph with gaussian features."""
    src, dst = [], []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < edge_prob:
                src.append(i)
                dst.append(j)
    etype = rng.integers(0, typed, len(src)) if typed else None
    return build_graph(n, np.array(src), np.array(dst), rng.normal(size=(n, d)), edge_type=etype)


@st.composite
def small_digraphs(draw, max_nodes=8):
    """(N, edge pairs) with N in [0, max_nodes]; self-loops and repeats are
    allowed, build_graph drops them."""
    n = draw(st.integers(0, max_nodes))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=3 * n))


# N = 0, 1 and 2, edgeless and multi-component graphs, run on every example
DEGENERATE_GRAPHS = [(0, []), (1, []), (2, []), (2, [(0, 1)]), (5, []), (6, [(0, 1), (1, 2), (4, 3)])]


def with_degenerate_graphs(test):
    for case in DEGENERATE_GRAPHS:
        test = example(case)(test)
    return test


def graph_from_pairs(n, pairs):
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    return build_graph(n, src, dst, np.ones((n, 1)))


def in_neighbors(g, i):
    return g.edge_src[g.in_ptr[i] : g.in_ptr[i + 1]]


def out_neighbors(g, j):
    return g.edge_dst[g.out_perm[g.out_ptr[j] : g.out_ptr[j + 1]]]


def cosine_similarity(g, j, i):
    """Cosine of the two feature vectors; 0.0 if either has zero norm."""
    xj, xi = g.features[j], g.features[i]
    nj, ni = np.linalg.norm(xj), np.linalg.norm(xi)
    if nj == 0.0 or ni == 0.0:
        return 0.0
    return float(np.dot(xj, xi) / (nj * ni))


def to_networkx(g):
    G = nx.DiGraph()
    G.add_nodes_from(range(g.num_nodes))
    G.add_edges_from(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
    return G


@pytest.fixture(scope="module")
def workloads():
    """``benchmark/workloads.py``, loaded read-only by path.  Its frozen
    dataclasses look their module up in ``sys.modules``, so it is registered
    there before it runs, and removed when the module's tests end."""
    path = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def planted_heterogeneous_graph(n=2000, planted_edges=6000, noise_edges=1500, seed=0, d=8):
    """Three-edge-type graph where only type 0 tracks a planted per-node
    importance: type-0 sources are drawn proportionally to importance,
    noise-type endpoints are uniform.  Returns (graph, importance)."""
    rng = np.random.default_rng(seed)
    importance = rng.pareto(2.0, n) + 0.05
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    feats = importance[:, None] * direction + 0.5 * rng.normal(size=(n, d))

    p = importance / importance.sum()
    src = [rng.choice(n, size=planted_edges, p=p)]
    dst = [rng.integers(0, n, planted_edges)]
    etype = [np.zeros(planted_edges, dtype=np.int64)]
    for t in (1, 2):
        src.append(rng.integers(0, n, noise_edges))
        dst.append(rng.integers(0, n, noise_edges))
        etype.append(np.full(noise_edges, t, dtype=np.int64))
    src, dst, etype = np.concatenate(src), np.concatenate(dst), np.concatenate(etype)
    keep = src != dst
    g = build_graph(n, src[keep], dst[keep], feats, edge_type=etype[keep])
    return g, importance
