"""Directed attributed graph with CSR adjacency in both orientations.

Edges follow the information-flow convention: an edge j -> i means node j
supplies information to node i.  The canonical edge order used throughout
the package is sorted by (destination, source), which keeps all incoming
edges of a node contiguous; ``out_perm`` maps out-CSR positions back into
that canonical order so per-edge quantities can be read either way.
"""

from __future__ import annotations

import codecs
import itertools
import re
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

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_ptr)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_ptr)

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
        columns = [self.edge_src, self.edge_dst] + ([] if self.edge_type is None else [self.edge_type])
        write_int_rows(path, np.column_stack(columns))

    def write_id_map(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for dense, original in enumerate(self.id_map):
                fh.write(f"{dense}\t{original}\n")


def write_int_rows(path, rows: np.ndarray) -> None:
    """Write a 2-D integer array as text, one space-separated row per line."""
    rows = np.asarray(rows)
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))


def _stable_bucket(keys: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """``ids`` reordered stably by ``keys`` in [0, n).  A CSR matrix with one
    entry per row, converted to CSC, is a counting sort in scipy's C code:
    entries land in their column in row order, and no duplicate is summed."""
    rows = sparse.csr_matrix((ids, keys, np.arange(ids.size + 1)), shape=(ids.size, n))
    return rows.tocsc().data


def _pointers(ids: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of edges grouped by ``ids`` in [0, n)."""
    return np.concatenate([[0], np.cumsum(np.bincount(ids, minlength=n))])


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
    # canonical order (dst, src, type): a stable sort by type, then stable
    # counting sorts by source and by destination, as np.lexsort would give
    if edge_type is not None:
        edge_type = np.asarray(edge_type, dtype=np.int64)[keep]
    order = np.arange(src.size) if edge_type is None else np.argsort(edge_type, kind="stable")
    for key in (src, dst):
        order = _stable_bucket(key[order], order, num_nodes)
    src, dst = src[order], dst[order]
    uniq = np.ones(src.size, dtype=bool)
    uniq[1:] = (dst[1:] != dst[:-1]) | (src[1:] != src[:-1])
    if edge_type is not None:
        edge_type = edge_type[order]
        uniq[1:] |= edge_type[1:] != edge_type[:-1]
        edge_type = edge_type[uniq]
    duplicates = int(src.size - uniq.sum())
    src, dst = src[uniq], dst[uniq]

    in_ptr, out_ptr = _pointers(dst, num_nodes), _pointers(src, num_nodes)
    out_perm = _stable_bucket(src, np.arange(src.size), num_nodes)

    return AttributedGraph(
        num_nodes=num_nodes, num_edges=src.size, edge_src=src, edge_dst=dst, edge_type=edge_type,
        in_ptr=in_ptr, out_ptr=out_ptr, out_perm=out_perm, features=features,
        id_map=id_map if id_map is not None else [str(i) for i in range(num_nodes)],
        dropped_self_loops=dropped, collapsed_duplicates=duplicates,
    )


def _digit_csv(data: bytes) -> np.ndarray | None:
    """The matrix of a CSV of one-digit fields, read from its bytes; None for any other layout."""
    width = data.find(b"\n") + 1  # d digits, d - 1 commas and a newline
    if width < 2 or width % 2 or len(data) % width:
        return None
    rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, width)
    digits = rows[:, ::2] - ord("0")  # uint8 wraps below "0"
    if (rows[:, -1] != ord("\n")).any() or (rows[:, 1:-1:2] != ord(",")).any() or (digits > 9).any():
        return None
    return digits.astype(np.float64)


def load_features(path, expected_nodes: int | None = None) -> np.ndarray:
    """Load a feature matrix from CSV (row order = node id) or the PINEF1
    binary format, detected by magic bytes: ``PINEF1``, the row and column
    counts as little-endian uint64, then the rows as little-endian float32.
    A CSV of one-digit fields split by ``,``, every line ended by ``\n`` and of
    one width, is read from its bytes; ``np.loadtxt`` reads any other CSV."""
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
        with open(path, "rb") as fh:
            feats = _digit_csv(fh.read())
        if feats is None:
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


# The bytes that ``bytes.split`` splits on.  ``str.split`` also splits on
# U+001C..U+001F and on non-ASCII spaces, which _EXOTIC_SPACE matches.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\n\r\x0b\x0c")] = True
_EXOTIC_SPACE = re.compile(r"[^\S \t\n\r\x0b\x0c]")
_LINE_END = re.compile(rb"\r\n?|\n")
_CANONICAL_DIGITS = 18  # every decimal of at most 18 digits fits in int64
_INT64 = np.iinfo(np.int64)


def _read_edge_bytes(path) -> bytes:
    """The file's bytes after one leading UTF-8 byte-order mark, with each
    whitespace character that ``str.split`` knows and ``bytes.split`` does
    not replaced by a space.  A file that is not UTF-8 raises
    ``GraphFormatError`` at the line of the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    if data.isascii() and not any(c in data for c in b"\x1c\x1d\x1e\x1f"):
        return data
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(_LINE_END.findall(data, 0, exc.start)) + 1
        raise GraphFormatError(f"{path}:{lineno}: file is not UTF-8 text ({exc.reason})") from exc
    return _EXOTIC_SPACE.sub(" ", text).encode("utf-8")


def _token_spans(buf: np.ndarray):
    r"""First byte, length and 1-based line number of each whitespace-separated
    token.  Lines end at ``\n``, ``\r\n`` or a lone ``\r``, as in text mode."""
    edge = np.diff(_SPACE[buf].view(np.int8), prepend=1, append=1)
    starts = np.flatnonzero(edge == -1)
    lengths = np.flatnonzero(edge == 1) - starts
    lf, cr = buf == ord("\n"), buf == ord("\r")
    cr[:-1] &= ~lf[1:]
    return starts, lengths, np.searchsorted(np.flatnonzero(lf | cr), starts) + 1


def _decimal_values(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Which tokens are canonical decimals, spelled as ``str()`` spells an
    integer of at most 18 digits (an optional ``-``, no leading zero, no
    ``-0``), and their values (0 for the other tokens)."""
    digit = (buf - ord("0")) < 10  # uint8 wraps below "0"
    count = np.add.reduceat(digit, starts) if starts.size else np.zeros(0, dtype=np.int64)
    neg = buf[starts] == ord("-")
    first_digit = np.minimum(starts + neg, buf.size - 1)
    fast = (count == lengths - neg) & (count >= 1) & (count <= _CANONICAL_DIGITS)
    fast &= (buf[first_digit] != ord("0")) | ((count == 1) & ~neg)
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(int(count[fast].max(initial=0))):  # Horner, one digit place at a time
        digits = buf[np.minimum(first_digit + k, buf.size - 1)] - ord("0")
        values = np.where(fast & (count > k), values * 10 + digits, values)
    return fast, np.where(neg, -values, values)


def _as_int(token: str) -> int | None:
    try:
        return int(token)
    except ValueError:
        return None


def _densify(tokens: np.ndarray, fast: np.ndarray, values: np.ndarray, words: np.ndarray):
    """Dense index of each id token, and the ids in dense order: integers by
    value, equal values by token string, then the other ids by string.

    Canonical decimals are ranked with ``np.unique``.  Only the other tokens
    (``words``, as bytes) go through Python: those ``int()`` accepts (zero
    padding, ``+``, ``_``, non-ASCII digits, beyond int64) are placed among
    the canonical ones by value, and the rest sort bytewise after them,
    which is code point order in UTF-8."""
    is_fast = fast[tokens]
    known, fast_inverse = np.unique(values[tokens[is_fast]], return_inverse=True)
    unusual, other_inverse = np.unique(words[tokens[~is_fast]], return_inverse=True)
    names = [w.decode("utf-8") for w in unusual]
    numbers = [_as_int(name) for name in names]
    ints = sorted((v, name, j) for j, (v, name) in enumerate(zip(numbers, names)) if v is not None)
    # how many canonical ids sort before each unusual integer id
    place = np.zeros(len(ints), dtype=np.int64)
    for i, (v, name, _j) in enumerate(ints):
        k = int(np.searchsorted(known, min(max(v, _INT64.min), _INT64.max)))
        place[i] = k + (k < known.size and known[k] == v and str(v) < name)
    strings = [j for j, v in enumerate(numbers) if v is None]

    fast_rank = np.arange(known.size) + np.searchsorted(place, np.arange(known.size), side="right")
    other_rank = np.empty(len(names), dtype=np.int64)
    other_rank[[j for _v, _name, j in ints]] = place + np.arange(len(ints))
    other_rank[strings] = known.size + len(ints) + np.arange(len(strings))
    ids = np.empty(known.size + len(names), dtype=object)
    ids[fast_rank] = known.astype(str).tolist()
    ids[other_rank] = names
    index = np.empty(tokens.size, dtype=np.int64)
    index[is_fast] = fast_rank[fast_inverse]
    index[~is_fast] = other_rank[other_inverse]
    return index, ids.tolist()


def _line_text(path, lineno: int) -> str:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return next(itertools.islice(fh, lineno - 1, None)).strip()


def load_graph(
    edge_list_path,
    feature_path=None,
    reverse_edges: bool = False,
    num_nodes: int | None = None,
) -> AttributedGraph:
    r"""Load an attributed graph from an edge-list file plus a feature file.

    The edge list is UTF-8 text with one edge per line, ``src dst`` or
    ``src dst type``, in columns split by any whitespace ``str.split``
    knows (spaces, tabs, ...).  One leading byte-order mark is skipped; a
    file that is not UTF-8 raises ``GraphFormatError`` at the line of its
    first bad byte.  Lines end at ``\n``, ``\r\n`` or ``\r``.
    Blank lines and lines whose first character after leading whitespace
    is ``#`` are skipped.  Every other line must have 2 or 3 columns, all
    lines the same number, and a type must be an integer in int64; else
    ``GraphFormatError`` names ``path:lineno``.

    Node ids are tokens, densified to [0, N): ids that ``int()`` accepts
    come first, by integer value, and tokens of equal value (``7``,
    ``07``, ``+7``) are distinct nodes ordered by token string; every other
    id follows, in string order.  ``id_map`` holds the tokens in that
    order.  Self-loops are dropped and repeated (src, dst[, type]) edges
    collapsed, counted in ``dropped_self_loops`` and
    ``collapsed_duplicates``.  When ``feature_path`` is None every node
    gets a single constant feature.  ``reverse_edges`` flips edge
    orientation at load time, for raw citation files stored citing ->
    cited.  ``num_nodes`` adds trailing isolated nodes.
    """
    path = edge_list_path
    data = _read_edge_bytes(path)
    buf = np.frombuffer(data, dtype=np.uint8)
    starts, lengths, token_line = _token_spans(buf)
    heads = np.flatnonzero(np.diff(token_line, prepend=0))  # first token of each non-blank line
    counts = np.diff(heads, append=starts.size)
    rows = buf[starts[heads]] != ord("#")
    heads, counts, lines = heads[rows], counts[rows], token_line[heads[rows]]
    wrong = (counts != 2) & (counts != 3)
    if wrong.any():
        lineno = lines[np.argmax(wrong)]
        raise GraphFormatError(f"{path}:{lineno}: expected 'src dst [type]', got {_line_text(path, lineno)!r}")

    fast, values = _decimal_values(buf, starts, lengths)
    used = np.concatenate([heads, heads + 1, heads[counts == 3] + 2])
    # the tokens as Python bytes, split only when some token is not a canonical decimal
    words = np.array(data.split(), dtype=object) if not fast[used].all() else np.empty(0, dtype=object)

    typed = bool(counts.size) and counts[0] == 3
    inconsistent = counts != counts[:1]
    bad_type = np.zeros(heads.size, dtype=bool)
    etype = None
    if typed:
        rows3 = np.flatnonzero(~inconsistent)
        etype = values[heads[rows3] + 2]
        for k in np.flatnonzero(~fast[heads[rows3] + 2]):  # types not spelled as canonical decimals
            value = _as_int(words[heads[rows3[k]] + 2].decode("utf-8"))
            if value is None or not _INT64.min <= value <= _INT64.max:
                bad_type[rows3[k]] = True
            else:
                etype[k] = value
    if (inconsistent | bad_type).any():
        r = np.argmax(inconsistent | bad_type)
        if inconsistent[r]:
            raise GraphFormatError(f"{path}:{lines[r]}: inconsistent column count")
        raise GraphFormatError(f"{path}:{lines[r]}: bad edge type {words[heads[r] + 2].decode('utf-8')!r}")

    index, id_map = _densify(np.concatenate([heads, heads + 1]), fast, values, words)
    n = len(id_map)
    if num_nodes is not None:
        if num_nodes < n:
            raise GraphFormatError(f"num_nodes={num_nodes} but edge list references {n} ids")
        # trailing isolated nodes with dense ids
        n = num_nodes
    src, dst = index[: heads.size], index[heads.size :]
    if reverse_edges:
        src, dst = dst, src

    if feature_path is None:
        features = np.ones((n, 1), dtype=np.float64)
    else:
        features = load_features(feature_path, expected_nodes=n)

    id_map += [str(i) for i in range(len(id_map), n)]
    return build_graph(n, src, dst, features, edge_type=etype, id_map=id_map)


def _edge_subgraph(g: AttributedGraph, keep: np.ndarray, edge_type, nodes=None) -> AttributedGraph:
    """The graph on ``nodes`` (increasing ids; every node when None) with the
    canonical edges where ``keep`` holds.  Renumbering nodes in order keeps the
    (dst, src) order: edges and ``out_perm`` are filtered and renumbered, unsorted."""
    src, dst = g.edge_src[keep], g.edge_dst[keep]
    n, features, id_map = g.num_nodes, g.features, list(g.id_map)
    if nodes is not None:
        remap = np.full(g.num_nodes, -1, dtype=np.int64)
        remap[nodes] = np.arange(nodes.size)
        src, dst = remap[src], remap[dst]
        n, features, id_map = nodes.size, g.features[nodes], [g.id_map[v] for v in nodes]
    new_id = np.cumsum(keep) - 1  # canonical id among the kept edges
    return AttributedGraph(
        num_nodes=n, num_edges=src.size, edge_src=src, edge_dst=dst, edge_type=edge_type,
        in_ptr=_pointers(dst, n), out_ptr=_pointers(src, n), out_perm=new_id[g.out_perm[keep[g.out_perm]]],
        features=features, id_map=id_map,
    )


def subgraph_by_edge_type(g: AttributedGraph, type_id: int) -> AttributedGraph:
    """Same node set, only edges of the given type retained (untyped result)."""
    if g.edge_type is None:
        raise ValueError("graph has no edge types")
    types = np.unique(g.edge_type)
    if type_id not in types:
        raise ValueError(f"unknown edge type {type_id}; present types: {types.tolist()}")
    return _edge_subgraph(g, g.edge_type == type_id, None)


def induced_subgraph(g: AttributedGraph, nodes: np.ndarray) -> AttributedGraph:
    """Subgraph induced on the given node set, with remapped dense ids."""
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    inside = np.zeros(g.num_nodes, dtype=bool)
    inside[nodes] = True
    keep = inside[g.edge_src] & inside[g.edge_dst]
    return _edge_subgraph(g, keep, None if g.edge_type is None else g.edge_type[keep], nodes)


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
