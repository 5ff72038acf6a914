"""Directed attributed graph with CSR adjacency in both orientations.

Edges follow the information-flow convention: an edge j -> i means node j
supplies information to node i.  The canonical edge order used throughout
the package is sorted by (destination, source), which keeps all incoming
edges of a node contiguous; ``out_perm`` maps out-CSR positions back into
that canonical order so per-edge quantities can be read either way.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

MAGIC_FEATURES = b"PINEF1"


class GraphFormatError(ValueError):
    """Malformed edge-list or feature file."""


class DimensionError(ValueError):
    """Feature matrix does not match the node universe."""


class EmptyGraphError(ValueError):
    """The graph has no nodes, so a per-node quantity is undefined."""


@dataclass
class AttributedGraph:
    num_nodes: int
    num_edges: int
    # canonical edge arrays, sorted by (dst, src)
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_type: np.ndarray | None
    # CSR over destinations: in-neighbors of i are edge_src[in_ptr[i]:in_ptr[i+1]]
    in_ptr: np.ndarray
    # CSR over sources: out-edge canonical ids of j are out_perm[out_ptr[j]:out_ptr[j+1]]
    out_ptr: np.ndarray
    out_perm: np.ndarray
    features: np.ndarray
    # densified id -> original id label (strings), for reporting
    id_map: list[str] = field(default_factory=list)
    dropped_self_loops: int = 0
    collapsed_duplicates: int = 0

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def in_neighbors(self, i: int) -> np.ndarray:
        return self.edge_src[self.in_ptr[i] : self.in_ptr[i + 1]]

    def out_neighbors(self, j: int) -> np.ndarray:
        return self.edge_dst[self.out_perm[self.out_ptr[j] : self.out_ptr[j + 1]]]

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_ptr)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_ptr)

    def cosine_similarity(self, j: int, i: int) -> float:
        """Cosine of the two feature vectors; 0.0 if either has zero norm."""
        xj, xi = self.features[j], self.features[i]
        nj, ni = np.linalg.norm(xj), np.linalg.norm(xi)
        if nj == 0.0 or ni == 0.0:
            return 0.0
        return float(np.dot(xj, xi) / (nj * ni))

    def edge_cosine(self) -> np.ndarray:
        """Per-edge cosine similarity sim(src, dst) in canonical order; 0.0
        where either feature vector has zero norm.  Endpoint features are
        gathered in chunks of about 2^18 values, so temporaries stay small
        for wide features."""
        x = self.features
        norms = np.sqrt(np.einsum("ij,ij->i", x, x))
        dots = np.empty(self.num_edges)
        step = max(1, (1 << 18) // max(1, x.shape[1]))
        for lo in range(0, self.num_edges, step):
            src, dst = self.edge_src[lo : lo + step], self.edge_dst[lo : lo + step]
            dots[lo : lo + step] = np.einsum("ij,ij->i", x[src], x[dst])
        denom = norms[self.edge_src] * norms[self.edge_dst]
        return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)

    def adjacency(self) -> sparse.csr_matrix:
        """Unit-weight CSR matrix whose row j holds j's out-neighbours."""
        n = self.num_nodes
        return sparse.csr_matrix(
            (np.ones(self.num_edges), self.edge_dst[self.out_perm], self.out_ptr), shape=(n, n)
        )

    def write_edge_list(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(self.num_edges):
                if self.edge_type is not None:
                    fh.write(f"{self.edge_src[k]} {self.edge_dst[k]} {self.edge_type[k]}\n")
                else:
                    fh.write(f"{self.edge_src[k]} {self.edge_dst[k]}\n")

    def write_id_map(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for dense, original in enumerate(self.id_map):
                fh.write(f"{dense}\t{original}\n")


def build_graph(
    num_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    features: np.ndarray,
    edge_type: np.ndarray | None = None,
    id_map: list[str] | None = None,
) -> AttributedGraph:
    """Assemble a graph from dense-id edge arrays, dropping self-loops and
    collapsing duplicate (src, dst, type) triples."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise DimensionError(
            f"feature matrix has {features.shape[0] if features.ndim == 2 else '?'} rows, "
            f"graph has {num_nodes} nodes"
        )
    if src.size and (src.min() < 0 or src.max() >= num_nodes or dst.min() < 0 or dst.max() >= num_nodes):
        raise GraphFormatError("edge endpoint outside [0, N)")

    keep = src != dst
    dropped = int(src.size - keep.sum())
    src, dst = src[keep], dst[keep]
    if edge_type is not None:
        edge_type = np.asarray(edge_type, dtype=np.int64)[keep]

    # canonical sort by (dst, src, type) then collapse duplicates
    if edge_type is not None:
        order = np.lexsort((edge_type, src, dst))
        src, dst, edge_type = src[order], dst[order], edge_type[order]
        key = np.stack([dst, src, edge_type], axis=1)
    else:
        order = np.lexsort((src, dst))
        src, dst = src[order], dst[order]
        key = np.stack([dst, src], axis=1)
    if src.size:
        uniq = np.ones(src.size, dtype=bool)
        uniq[1:] = np.any(key[1:] != key[:-1], axis=1)
    else:
        uniq = np.zeros(0, dtype=bool)
    duplicates = int(src.size - uniq.sum())
    src, dst = src[uniq], dst[uniq]
    if edge_type is not None:
        edge_type = edge_type[uniq]
    m = src.size

    in_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(in_ptr, dst + 1, 1)
    np.cumsum(in_ptr, out=in_ptr)

    out_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(out_ptr, src + 1, 1)
    np.cumsum(out_ptr, out=out_ptr)
    out_perm = np.argsort(src, kind="stable").astype(np.int64)

    return AttributedGraph(
        num_nodes=num_nodes,
        num_edges=m,
        edge_src=src,
        edge_dst=dst,
        edge_type=edge_type,
        in_ptr=in_ptr,
        out_ptr=out_ptr,
        out_perm=out_perm,
        features=features,
        id_map=id_map if id_map is not None else [str(i) for i in range(num_nodes)],
        dropped_self_loops=dropped,
        collapsed_duplicates=duplicates,
    )


def _parse_edge_lines(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(f"{path}:{lineno}: expected 'src dst [type]', got {line!r}")
            rows.append((lineno, parts))
    return rows


def load_features(path, expected_nodes: int | None = None) -> np.ndarray:
    """Load a feature matrix from CSV (row order = node id) or the PINEF1
    binary format, detected by magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(6)
    if head == MAGIC_FEATURES:
        with open(path, "rb") as fh:
            fh.seek(6)
            n, d = struct.unpack("<QQ", fh.read(16))
            data = np.fromfile(fh, dtype="<f4", count=n * d)
        if data.size != n * d:
            raise GraphFormatError(f"{path}: truncated feature blob")
        feats = data.reshape(n, d).astype(np.float64)
    else:
        try:
            feats = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise GraphFormatError(f"{path}: cannot parse feature CSV: {exc}") from exc
    bad_rows = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad_rows.size:
        raise GraphFormatError(f"{path}: feature row {bad_rows[0] + 1} holds a NaN or infinite value")
    if expected_nodes is not None and feats.shape[0] != expected_nodes:
        raise DimensionError(
            f"{path}: {feats.shape[0]} feature rows but {expected_nodes} nodes in the edge list"
        )
    return feats


def write_features_binary(path, features: np.ndarray) -> None:
    features = np.asarray(features)
    with open(path, "wb") as fh:
        fh.write(MAGIC_FEATURES)
        fh.write(struct.pack("<QQ", features.shape[0], features.shape[1]))
        features.astype("<f4").tofile(fh)


def load_graph(
    edge_list_path,
    feature_path=None,
    reverse_edges: bool = False,
    num_nodes: int | None = None,
) -> AttributedGraph:
    """Load an attributed graph from an edge-list file plus a feature file.

    Node ids are densified to [0, N) by sorted order of the distinct ids
    seen in the edge list (numeric sort when every id is an integer).  When
    ``feature_path`` is None every node gets a single constant feature.
    ``reverse_edges`` flips edge orientation at load time, for raw citation
    files stored citing -> cited.
    """
    rows = _parse_edge_lines(edge_list_path)
    raw_src, raw_dst, raw_type = [], [], []
    typed = None
    for lineno, parts in rows:
        if typed is None:
            typed = len(parts) == 3
        elif typed != (len(parts) == 3):
            raise GraphFormatError(f"{edge_list_path}:{lineno}: inconsistent column count")
        raw_src.append(parts[0])
        raw_dst.append(parts[1])
        if typed:
            try:
                raw_type.append(int(parts[2]))
            except ValueError as exc:
                raise GraphFormatError(f"{edge_list_path}:{lineno}: bad edge type {parts[2]!r}") from exc

    ids = sorted(set(raw_src) | set(raw_dst), key=_id_sort_key)
    index = {v: k for k, v in enumerate(ids)}
    n = len(ids)
    if num_nodes is not None:
        if num_nodes < n:
            raise GraphFormatError(f"num_nodes={num_nodes} but edge list references {n} ids")
        # trailing isolated nodes with dense ids
        n = num_nodes
    src = np.array([index[v] for v in raw_src], dtype=np.int64)
    dst = np.array([index[v] for v in raw_dst], dtype=np.int64)
    if reverse_edges:
        src, dst = dst, src
    etype = np.array(raw_type, dtype=np.int64) if typed else None

    if feature_path is None:
        features = np.ones((n, 1), dtype=np.float64)
    else:
        features = load_features(feature_path, expected_nodes=n)

    id_map = list(ids) + [str(i) for i in range(len(ids), n)]
    return build_graph(n, src, dst, features, edge_type=etype, id_map=id_map)


def _id_sort_key(token: str):
    try:
        return (0, int(token), "")
    except ValueError:
        return (1, 0, token)


def subgraph_by_edge_type(g: AttributedGraph, type_id: int) -> AttributedGraph:
    """Same node set, only edges of the given type retained (untyped result)."""
    if g.edge_type is None:
        raise ValueError("graph has no edge types")
    types = np.unique(g.edge_type)
    if type_id not in types:
        raise ValueError(f"unknown edge type {type_id}; present types: {types.tolist()}")
    mask = g.edge_type == type_id
    return build_graph(
        g.num_nodes,
        g.edge_src[mask],
        g.edge_dst[mask],
        g.features,
        edge_type=None,
        id_map=list(g.id_map),
    )


def induced_subgraph(g: AttributedGraph, nodes: np.ndarray) -> AttributedGraph:
    """Subgraph induced on the given node set, with remapped dense ids."""
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    remap = -np.ones(g.num_nodes, dtype=np.int64)
    remap[nodes] = np.arange(nodes.size)
    keep = (remap[g.edge_src] >= 0) & (remap[g.edge_dst] >= 0)
    etype = g.edge_type[keep] if g.edge_type is not None else None
    return build_graph(
        nodes.size,
        remap[g.edge_src[keep]],
        remap[g.edge_dst[keep]],
        g.features[nodes],
        edge_type=etype,
        id_map=[g.id_map[v] for v in nodes],
    )


def weak_components(g: AttributedGraph) -> np.ndarray:
    """Component label per node under edge-direction-blind connectivity.
    Labels are numbered in ascending order of each component's smallest
    node id."""
    _count, labels = csgraph.connected_components(g.adjacency(), connection="weak")
    return labels


def largest_weak_component(g: AttributedGraph) -> AttributedGraph:
    """Induced subgraph on the largest weakly connected component; size ties
    go to the component containing the smallest node id.  A graph with no
    nodes gives an empty graph."""
    labels = weak_components(g)
    if labels.size == 0:
        return induced_subgraph(g, labels)
    best = int(np.argmax(np.bincount(labels)))  # the first maximum: the tie rule
    return induced_subgraph(g, np.nonzero(labels == best)[0])
