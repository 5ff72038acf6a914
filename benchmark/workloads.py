"""Seeded workload generators and the pipeline config of each workload.

Every workload is made from ``--seed`` alone: the same seed writes
byte-identical files.  The program under test only ever sees the files.
The reasons for each workload are in README.md beside this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    nodes: int  # before nodes that end up in no edge are dropped
    edges: int  # before duplicates are collapsed
    topics: int
    feature_dim: int
    words_per_node: int  # > 0: binary bag of words; 0: dense Gaussian features
    homophily: float  # share of edges whose source is drawn from the destination's topic
    source_exponent: float  # Zipf exponent of how often a node is cited
    root_fraction: float  # share of nodes that cite nothing
    # Most cited nodes are the oldest (log-normal noise around the Zipf law
    # in age order) rather than of random age.  At the scale shape, hubs of
    # random age left the LT+ spread of a top-degree seed set varying by
    # about 10% between seeds; old hubs bring that to about 2%.
    hubs_by_age: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    config: dict  # INI sections for `pine pipeline`, without [graph]
    headline: str  # method whose LT+ seed-set spread is reported as seed_spread
    setup_repeats: int  # per set-up operation; there is one before each pipeline run

    @property
    def methods(self) -> list[str]:
        return [m.strip() for m in self.config["pipeline"]["methods"].split(",")]

    @property
    def models(self) -> list[str]:
        return [m.strip() for m in self.config["pipeline"]["models"].split(",")]


# About 2.7k nodes, 5.4k edges and 1433 binary features at 1.2% density.
CORA = Shape(
    nodes=3000, edges=5800, topics=7, feature_dim=1433, words_per_node=18,
    homophily=0.8, source_exponent=1.0, root_fraction=0.15,
)
# About 48k nodes and 470k edges with 16 dense features: the 100k-node,
# 1M-edge shape halved so that a run stays within the time budget.
SCALE = Shape(
    nodes=50_000, edges=500_000, topics=16, feature_dim=16, words_per_node=0,
    homophily=0.7, source_exponent=0.8, root_fraction=0.15, hubs_by_age=True,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cora-train",
            shape=CORA,
            config={
                "pipeline": {"methods": "out_degree, pine", "models": "ltp"},
                "diffusion": {"runs": "100"},
                # patience == max_epochs: a fixed epoch count, so float noise
                # in a changed kernel cannot move the time via early stopping
                "train": {"hidden": "512", "max_epochs": "40", "patience": "40"},
            },
            headline="pine",
            setup_repeats=3,
        ),
        Workload(
            name="cora-spread",
            shape=CORA,
            config={
                "pipeline": {
                    "methods": "out_degree, pagerank, voterank, closeness, betweenness",
                    "models": "ltp, icp, sir",
                },
                "diffusion": {"runs": "50"},
            },
            headline="closeness",
            setup_repeats=3,
        ),
        Workload(
            name="scale-500k",
            shape=SCALE,
            config={
                "pipeline": {"methods": "pagerank, voterank, pine", "models": "ltp, icp", "seed_fraction": "0.004"},
                "diffusion": {"runs": "2"},
                "train": {"hidden": "16", "max_epochs": "2", "patience": "2"},
            },
            headline="pine",
            setup_repeats=1,
        ),
    )
}


def _popularity(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    """Zipf weights of how often each node is cited; node 0 is the oldest."""
    rank = np.arange(1, shape.nodes + 1, dtype=np.float64)
    if shape.hubs_by_age:
        return rank**-shape.source_exponent * np.exp(rng.normal(size=shape.nodes))
    return (rank**-shape.source_exponent)[rng.permutation(shape.nodes)]


def _draw_older(weights: np.ndarray, members: np.ndarray, dst: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each destination, a member older than it (smaller id) drawn in
    proportion to ``weights``; -1 where no member is older."""
    cdf = np.cumsum(weights[members])
    older = np.searchsorted(members, dst)
    out = np.full(dst.size, -1, dtype=np.int64)
    ok = older > 0
    total = cdf[older[ok] - 1]
    out[ok] = members[np.minimum(np.searchsorted(cdf, u[ok] * total), members.size - 1)]
    return out


def generate_edges(shape: Shape, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A citation-like DAG: each edge runs from an older source to a newer
    destination (information flows from cited to citing).

    Sources are drawn by a heavy-tailed popularity, with topic homophily.
    A share of nodes are roots that cite nothing, so many nodes have no
    in-edge and cascades stop short of the whole graph.  Nodes that end up
    in no edge are dropped and the rest are relabelled at random, so every
    id appears in the edge list.  There are no self-loops or duplicates.
    Returns (src, dst, topic) with topic indexed by the new ids.
    """
    n = shape.nodes
    topic = rng.integers(0, shape.topics, size=n)
    popularity = _popularity(shape, rng)
    roots = np.zeros(n, dtype=bool)
    roots[rng.permutation(n)[: int(shape.root_fraction * n)]] = True
    roots[0] = True  # the oldest node has nothing to cite
    citing = np.nonzero(~roots)[0]
    dst = np.concatenate([citing, rng.choice(citing, shape.edges - citing.size)])
    src = np.full(dst.size, -1, dtype=np.int64)
    same = rng.random(dst.size) < shape.homophily
    u = rng.random(dst.size)
    for t in range(shape.topics):
        pick = same & (topic[dst] == t)
        src[pick] = _draw_older(popularity, np.nonzero(topic == t)[0], dst[pick], u[pick])
    rest = src < 0
    src[rest] = _draw_older(popularity, np.arange(n), dst[rest], u[rest])
    keys = np.unique(src * n + dst)
    src, dst = keys // n, keys % n
    used = np.unique(np.concatenate([src, dst]))
    relabel = np.full(n, -1, dtype=np.int64)
    relabel[used] = rng.permutation(used.size)
    new_topic = np.empty(used.size, dtype=np.int64)
    new_topic[relabel[used]] = topic[used]
    return relabel[src], relabel[dst], new_topic


def generate_features(shape: Shape, topic: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n, d = topic.size, shape.feature_dim
    if shape.words_per_node == 0:
        centers = rng.normal(size=(shape.topics, d))
        # rounded to what the CSV holds, so the reference sees the same values
        return np.round(centers[topic] + rng.normal(size=(n, d)), 6)
    # binary bag of words: half of each node's words come from its topic's vocabulary
    vocab = rng.permutation(d)[: (d // shape.topics) * shape.topics].reshape(shape.topics, -1)
    x = np.zeros((n, d))
    half = shape.words_per_node // 2
    rows = np.repeat(np.arange(n), shape.words_per_node)
    topic_words = vocab[topic[:, None], rng.integers(0, vocab.shape[1], size=(n, half))]
    any_words = rng.integers(0, d, size=(n, shape.words_per_node - half))
    x[rows, np.concatenate([topic_words, any_words], axis=1).ravel()] = 1.0
    return x


@dataclass
class Generated:
    """The files of one workload and the arrays they were written from."""

    config: str
    edges: str
    features: str
    src: np.ndarray
    dst: np.ndarray
    x: np.ndarray

    @property
    def sizes(self) -> dict:
        return {
            "nodes": int(self.x.shape[0]),
            "edges": int(self.src.size),
            "feature_dim": int(self.x.shape[1]),
            "feature_density": float(np.count_nonzero(self.x)) / self.x.size,
        }


def write_workload(workload: Workload, seed: int, directory: str) -> Generated:
    """Write edges.txt, features.csv and experiment.ini into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    src, dst, topic = generate_edges(workload.shape, rng)
    x = generate_features(workload.shape, topic, rng)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    edges_path = os.path.join(directory, "edges.txt")
    features_path = os.path.join(directory, "features.csv")
    with open(edges_path, "w", encoding="ascii") as fh:
        fh.write("".join(f"{s} {t}\n" for s, t in zip(src.tolist(), dst.tolist())))
    np.savetxt(features_path, x, fmt="%d" if workload.shape.words_per_node else "%.6f", delimiter=",")
    config_path = os.path.join(directory, "experiment.ini")
    sections = {"graph": {"edges": edges_path, "features": features_path}, **workload.config}
    with open(config_path, "w", encoding="ascii") as fh:
        for name, keys in sections.items():
            fh.write(f"[{name}]\n")
            fh.write("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return Generated(config_path, edges_path, features_path, src, dst, x)
