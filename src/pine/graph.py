"""Directed attributed graph with CSR adjacency in both orientations.

Edges follow the information-flow convention: an edge j -> i means node j
supplies information to node i.  The canonical edge order used throughout
the package is sorted by (destination, source), which keeps all incoming
edges of a node contiguous; ``out_perm`` maps out-CSR positions back into
that canonical order so per-edge quantities can be read either way.
"""

from __future__ import annotations

import codecs
import io
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
    feature_csr: dict = field(default_factory=dict, repr=False, compare=False)  # gat.graph_input's, by dtype

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
            dots[lo : lo + step] = np.einsum("ij,ij->i", np.take(x, src, axis=0), np.take(x, dst, axis=0))
        denom = norms[self.edge_src] * norms[self.edge_dst]
        return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)

    def in_edge_softmax(self, w: np.ndarray) -> np.ndarray:
        """Softmax of per-edge values ``w`` (canonical order) over each node's
        in-edges, max-shifted for stability, in ``w``'s dtype."""
        if not w.size:
            return w
        in_deg = self.in_degrees()
        has_in = in_deg > 0
        # in-edges of a node are contiguous in canonical order
        seg_max = np.repeat(np.maximum.reduceat(w, self.in_ptr[:-1][has_in]), in_deg[has_in])
        exp = np.exp(w - seg_max)
        denom = np.bincount(self.edge_dst, weights=exp, minlength=self.num_nodes).astype(exp.dtype)
        return (exp / denom[self.edge_dst]).astype(w.dtype)

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


def build_graph(
    num_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    features: np.ndarray,
    edge_type: np.ndarray | None = None,
    id_map: list[str] | None = None,
) -> AttributedGraph:
    """Assemble a graph from dense-id edge arrays, dropping self-loops and
    collapsing duplicate (src, dst, type) triples: the one constructor of
    ``AttributedGraph``, subgraphs included.

    Edge k is an entry of an N x N*T matrix at row dst and column
    ``src * T + rank``, with ``rank`` ordering the T distinct types (T = 1 and
    rank 0 untyped).  scipy's COO->CSR conversion sorts each row by column and
    sums repeats, giving the canonical (dst, src, type) order, ``in_ptr`` and
    the duplicate count; the CSR->CSC conversion of the canonical ids, a
    stable counting sort by source, gives ``out_ptr`` and ``out_perm``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != num_nodes:
        rows = features.shape[0] if features.ndim == 2 else "?"
        raise DimensionError(f"feature matrix has {rows} rows, graph has {num_nodes} nodes")
    if src.size and (src.min() < 0 or src.max() >= num_nodes or dst.min() < 0 or dst.max() >= num_nodes):
        raise GraphFormatError("edge endpoint outside [0, N)")

    keep = src != dst
    src, dst, kept = src[keep], dst[keep], int(keep.sum())
    types, rank = None, 0
    if edge_type is not None:
        types, rank = np.unique(np.asarray(edge_type, dtype=np.int64)[keep], return_inverse=True)
    t = 1 if types is None else max(types.size, 1)
    # float64 ones: a sum of repeats is a count and never wraps to 0; scipy's int32 indices are cast to int64
    incoming = sparse.csr_matrix((np.ones(kept), (dst, src * t + rank)), shape=(num_nodes, num_nodes * t))
    in_ptr, column = incoming.indptr.astype(np.int64), incoming.indices.astype(np.int64)
    src, dst = column // t, np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(in_ptr))
    outgoing = sparse.csr_matrix((np.arange(src.size), src, in_ptr), shape=(num_nodes, num_nodes)).tocsc()
    return AttributedGraph(
        num_nodes=num_nodes, num_edges=src.size, edge_src=src, edge_dst=dst,
        edge_type=None if types is None else types[column % t],
        in_ptr=in_ptr, out_ptr=outgoing.indptr.astype(np.int64), out_perm=outgoing.data, features=features,
        id_map=id_map if id_map is not None else [str(i) for i in range(num_nodes)],
        dropped_self_loops=keep.size - kept, collapsed_duplicates=kept - src.size,
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
    counts as little-endian uint64 (a 22-byte header), then the rows as
    little-endian float32.  The bytes are read once: a CSV of one-digit fields
    split by ``,``, every line ended by ``\n`` and of one width, is reshaped
    from them, and ``np.loadtxt`` reads any other CSV from them as UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    feats = None if data.startswith(MAGIC_FEATURES) else _digit_csv(data)
    if feats is None:  # one-digit fields are finite; float32 blobs and np.loadtxt values may not be
        if data.startswith(MAGIC_FEATURES):
            n, d = struct.unpack_from("<QQ", data[:22].ljust(22, b"\0"), 6)  # a short header fails below
            if len(data) < 22 + 4 * n * d:
                raise GraphFormatError(f"{path}: PINEF1 file cut short")
            feats = np.frombuffer(data, "<f4", n * d, 22).reshape(n, d).astype(np.float64)
        else:
            try:
                feats = np.loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), delimiter=",", ndmin=2)
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
_RANK_SPAN = 4  # ids below this many times the token count are ranked by a mask, in about np.unique's memory
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


def _densify(values: np.ndarray, fast: np.ndarray, others: np.ndarray):
    """Dense index of each id token, and the ids in dense order, from the tokens' ``values``, which
    are canonical decimals (``fast``) and the other tokens as bytes (``others``): ids that ``int()``
    accepts by value, equal values by token string, then the other ids by string.

    Canonical decimals are ranked by value: by a presence mask and its ``cumsum`` when all are
    nonnegative and below ``_RANK_SPAN`` times the token count (so one huge id allocates no huge
    mask), else by ``np.unique``; when every token is canonical that rank is the order.  Otherwise
    the distinct canonical values, as strings, and the other tokens are ranked by one Python sort."""
    ids = values[fast]
    top = int(ids.max(initial=-1))
    if 0 <= top < _RANK_SPAN * values.size and ids.min() >= 0:
        present = np.zeros(top + 1, dtype=bool)
        present[ids] = True
        known, fast_inverse = np.flatnonzero(present), np.cumsum(present)[ids] - 1
    else:
        known, fast_inverse = np.unique(ids, return_inverse=True)
    if not others.size:
        return fast_inverse, known.astype(str).tolist()
    slot: dict[bytes, int] = {}  # distinct other tokens, in first-seen order
    other_inverse = np.array([slot.setdefault(w, len(slot)) for w in others], dtype=np.int64)
    names = known.astype(str).tolist() + [w.decode("utf-8") for w in slot]
    numbers = known.tolist() + [_as_int(name) for name in names[known.size :]]
    order = sorted(range(len(names)), key=lambda k: (numbers[k] is None, numbers[k] or 0, names[k]))
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    index = np.empty(values.size, dtype=np.int64)
    index[fast] = rank[fast_inverse]
    index[~fast] = rank[known.size + other_inverse]
    return index, [names[k] for k in order]


def _line_text(path, lineno: int) -> str:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return next(itertools.islice(fh, lineno - 1, None)).strip()


def _canonical_table(data: bytes) -> np.ndarray | None:
    r"""The (M, 2|3) int64 table of an edge list in the canonical layout, read by one ``np.fromstring``:
    only digits, spaces, tabs and ``\n``, ending in ``\n``; the same 2 or 3 tokens on every line, split
    by one space or tab; tokens of 1 to 18 digits, no leading zero.  None for any other layout."""
    buf = np.frombuffer(data, dtype=np.uint8)
    if not data.endswith(b"\n") or (buf > ord("9")).any():
        return None
    ends = np.flatnonzero(buf < ord("0"))  # the byte after each token
    cols = int(np.argmax(buf[ends] == ord("\n"))) + 1
    if cols not in (2, 3) or ends.size % cols:
        return None
    seps, lengths = buf[ends].reshape(-1, cols), np.diff(ends, prepend=-1) - 1
    leading_zero = (buf[ends - lengths] == ord("0")) & (lengths > 1)
    if (seps[:, -1] != ord("\n")).any() or not np.isin(seps[:, :-1], (ord(" "), ord("\t"))).all():
        return None
    if not 1 <= lengths.min() <= lengths.max() <= _CANONICAL_DIGITS or leading_zero.any():
        return None
    values = np.fromstring(data, dtype=np.int64, sep=" ")  # any whitespace separates
    return values.reshape(-1, cols) if values.size == ends.size else None


def _tokenized(path, data: bytes):
    """Edge types (None untyped) and ``_densify`` inputs of any edge-list file, read token by token."""
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

    ids = np.concatenate([heads, heads + 1])
    return etype, values[ids], fast[ids], words[ids[~fast[ids]]]


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
    cited.  ``num_nodes`` adds trailing isolated nodes.  A file in
    ``_canonical_table``'s layout is parsed in one pass, to the same graph.
    """
    path = edge_list_path
    data = _read_edge_bytes(path)
    table = _canonical_table(data)
    if table is None:
        etype, values, fast, others = _tokenized(path, data)
    else:
        etype = table[:, 2] if table.shape[1] == 3 else None
        values, fast, others = table[:, :2].T.ravel(), np.ones(2 * table.shape[0], dtype=bool), np.empty(0, object)
    index, id_map = _densify(values, fast, others)
    n = len(id_map)
    if num_nodes is not None:
        if num_nodes < n:
            raise GraphFormatError(f"num_nodes={num_nodes} but edge list references {n} ids")
        # trailing isolated nodes with dense ids
        n = num_nodes
    src, dst = np.split(index, 2)
    if reverse_edges:
        src, dst = dst, src

    if feature_path is None:
        features = np.ones((n, 1), dtype=np.float64)
    else:
        features = load_features(feature_path, expected_nodes=n)

    id_map += [str(i) for i in range(len(id_map), n)]
    return build_graph(n, src, dst, features, edge_type=etype, id_map=id_map)


def subgraph_by_edge_type(g: AttributedGraph, type_id: int) -> AttributedGraph:
    """Same node set, only edges of the given type retained (untyped result),
    built by ``build_graph``; it shares ``g``'s features and so their CSR inputs."""
    if g.edge_type is None:
        raise ValueError("graph has no edge types")
    keep = g.edge_type == type_id
    if not keep.any():
        raise ValueError(f"unknown edge type {type_id}; present types: {np.unique(g.edge_type).tolist()}")
    sub = build_graph(g.num_nodes, g.edge_src[keep], g.edge_dst[keep], g.features, id_map=list(g.id_map))
    sub.feature_csr = g.feature_csr
    return sub


def node_mask(num_nodes: int, ids, what: str = "node") -> np.ndarray:
    """Boolean mask of the given ids (any iterable, with repeats) over [0, N).
    An id that is not an integer in [0, N) raises ``ValueError`` naming it."""
    mask = np.zeros(num_nodes, dtype=bool)
    ids = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
    if ids.size:
        if ids.dtype.kind not in "iu":  # 2.7, True and '1' name no node
            raise ValueError(f"{what} ids must be integers, not {ids.flat[0].item()!r}")
        outside = (ids < 0) | (ids >= num_nodes)
        if outside.any():
            raise ValueError(f"{what} id {ids.flat[np.argmax(outside)].item()} outside [0, {num_nodes})")
        mask[ids] = True
    return mask


def induced_subgraph(g: AttributedGraph, nodes) -> AttributedGraph:
    """Subgraph induced on ``nodes`` (as ``node_mask`` reads them), built by
    ``build_graph``: node k of the result is the k-th smallest id given.  Its
    features are a copy, with a CSR cache of their own."""
    inside = node_mask(g.num_nodes, nodes)
    nodes, remap = np.flatnonzero(inside), np.cumsum(inside) - 1
    keep = inside[g.edge_src] & inside[g.edge_dst]
    return build_graph(
        nodes.size, remap[g.edge_src[keep]], remap[g.edge_dst[keep]], np.take(g.features, nodes, axis=0),
        None if g.edge_type is None else g.edge_type[keep], [g.id_map[v] for v in nodes.tolist()],
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
    best = np.argmax(np.bincount(labels, minlength=1))  # the first maximum: the tie rule
    return induced_subgraph(g, np.flatnonzero(labels == best))
