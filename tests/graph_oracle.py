"""The edge-list loader, ``build_graph`` and edge-list writer as they were
before the loading path was vectorized: one Python loop over lines and one
over tokens, ``np.lexsort`` for the canonical order; and the two subgraph
functions as they were before they stopped calling ``build_graph``.  Tests
compare the package against them.  The code below is unchanged but for the
names, and ``load_graph`` and the subgraph functions here call the
``build_graph`` here."""

import numpy as np

from pine.graph import AttributedGraph, DimensionError, GraphFormatError, load_features


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


def write_edge_list(g: AttributedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(g.num_edges):
            if g.edge_type is not None:
                fh.write(f"{g.edge_src[k]} {g.edge_dst[k]} {g.edge_type[k]}\n")
            else:
                fh.write(f"{g.edge_src[k]} {g.edge_dst[k]}\n")


def subgraph_by_edge_type(g: AttributedGraph, type_id: int) -> AttributedGraph:
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
