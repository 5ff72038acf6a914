"""Directed attributed graph with CSR adjacency in both orientations.

Edges follow the information-flow convention: an edge j -> i means node j
supplies information to node i.  The canonical edge order used throughout
the package is sorted by (destination, source), which keeps all incoming
edges of a node contiguous; ``out_perm`` maps out-CSR positions back into
that canonical order so per-edge quantities can be read either way.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import itertools
import numbers
import os
import re
import signal
import struct
import tempfile
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph, issparse

MAGIC_FEATURES = b"PINEF1"
SPARSE_COSINE_DENSITY = 0.05  # edge_cosine sums over the feature CSR up to this share of nonzero values (measured)
COSINE_CHUNK = 1 << 18  # values edge_cosine gathers at a time
CHILD_PARSE_BYTES = 1 << 20  # load_graph parses float CSVs of this size up in a forked child (measured crossover)
_KEY_LIMIT = 2**63  # build_graph's int64 sort keys stay below this


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
    features: np.ndarray | sparse.csr_matrix  # load_features' form: dense float64, or a float64 CSR of digit rows
    # densified id -> original id label (strings), for reporting
    id_map: list[str] = field(default_factory=list)
    dropped_self_loops: int = 0
    collapsed_duplicates: int = 0
    feature_csr: dict = field(default_factory=dict, repr=False, compare=False)  # feature_rows' (features, X), by dtype
    source_csr: dict = field(default_factory=dict, repr=False, compare=False)  # gat.source_input's (X, S, columns, X[S]), by dtype
    path_scores: tuple | None = field(default=None, repr=False, compare=False)  # centrality._path_scores's
    diffusion: dict = field(default_factory=dict, repr=False, compare=False)  # diffusion._weights's and _ready's

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_ptr)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_ptr)

    def feature_rows(self, dtype=np.float64) -> sparse.csr_matrix:
        """``features`` as CSR in ``dtype``, kept in ``feature_csr`` per features array: a CSR's own arrays or float64 by
        ``scan_csr``, another dtype a cast of their ``data``.  A finite value beyond its range raises ``ValueError``."""
        key, features = np.dtype(dtype), self.features
        if key not in self.feature_csr or self.feature_csr[key][0] is not features:
            base = features if issparse(features) else scan_csr(features) if key == np.float64 else self.feature_rows()
            bad = np.flatnonzero(np.isfinite(base.data) & (np.abs(base.data) > np.finfo(key).max))
            if bad.size:
                node = self.id_map[np.searchsorted(base.indptr, bad[0], side="right") - 1]
                raise ValueError(f"feature row of node {node} holds {base.data[bad[0]]:g}, beyond {key}'s range")
            x = sparse.csr_matrix((base.data.astype(key, copy=False), base.indices, base.indptr), shape=base.shape)
            self.feature_csr[key] = (features, x)
        return self.feature_csr[key][1]

    def edge_cosine(self) -> np.ndarray:
        """Per-edge cosine similarity sim(src, dst) in canonical order; 0.0 where either feature vector is 0. The sums
        are those of rows scaled by powers of two to a largest |value| in [0.5, 1): no square overflows, and ``x * 2^k``
        gives the bits of ``x``.  Features at most ``SPARSE_COSINE_DENSITY`` nonzero are summed over ``feature_rows``'
        entries in column order (the same bits on integers), about ``COSINE_CHUNK`` gathered entries at a time,
        destination values by ``searchsorted``; others over dense rows, ``COSINE_CHUNK`` values at a time, unscaled while
        every nonzero |value| is within 2^-240..2^240, where scaling changes no bit, and from a scaled copy if not."""
        x, n, m, d = self.features, self.num_nodes, self.num_edges, self.feature_dim
        dots, nonzero = np.zeros(m), x.nnz if issparse(x) else np.count_nonzero(x != 0)  # a bool mask counts faster
        if nonzero <= SPARSE_COSINE_DENSITY * n * d:
            csr = self.feature_rows()
            counts = np.diff(csr.indptr)  # an empty row's shift is read from a later row and scales only zeros
            shift = -np.frexp(np.maximum.reduceat(np.append(np.abs(csr.data), 0.0), csr.indptr[:-1]))[1]
            data = np.ldexp(csr.data, np.repeat(shift, counts))
            norms = np.sqrt(np.bincount(np.repeat(np.arange(n), counts), weights=data * data, minlength=n))
            keys = np.repeat(np.arange(n) * d, counts) + csr.indices  # ascending: rows in order, sorted columns
            ends = np.cumsum(np.append(0, counts[self.edge_src]))  # edge k gathers its source's entries ends[k]:ends[k+1]
            cuts = np.searchsorted(ends, np.arange(0, ends[-1], COSINE_CHUNK), side="right") - 1
            for lo, hi in zip(cuts, np.append(cuts[1:], m)):  # no chunk when no entry exists
                k = counts[self.edge_src[lo:hi]]
                at = np.arange(ends[lo], ends[hi]) + np.repeat(csr.indptr[self.edge_src[lo:hi]] - ends[lo:hi], k)
                want = np.repeat(self.edge_dst[lo:hi] * d, k) + csr.indices[at]
                pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
                other = np.where(keys[pos] == want, data[pos], 0.0)  # the destination's values, scaled by its shift
                dots[lo:hi] = np.bincount(np.repeat(np.arange(hi - lo), k), other * data[at], minlength=hi - lo)
        else:  # within 2^-240..2^240 no product or sum leaves the normal range, scaled or not
            x = x.toarray() if issparse(x) else x
            step, below, top = max(1, COSINE_CHUNK // max(1, d)), 0, 0.0  # |values| < 2^-240, zeros too; the largest
            for lo in range(0, n, step):
                a = np.abs(x[lo : lo + step])
                below, top = below + np.count_nonzero(a < 2.0**-240), np.maximum(top, a.max(initial=0.0))
            if below > x.size - nonzero or not top <= 2.0**240:
                x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=1, initial=0.0))[1][:, None])
            norms = np.sqrt(np.einsum("ij,ij->i", x, x))
            for lo in range(0, m, step):
                src, dst = self.edge_src[lo : lo + step], self.edge_dst[lo : lo + step]
                dots[lo : lo + step] = np.einsum("ij,ij->i", np.take(x, src, axis=0), np.take(x, dst, axis=0))
        denom = norms[self.edge_src] * norms[self.edge_dst]
        return np.divide(dots, denom, out=np.zeros(m), where=denom > 0)

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

    def in_csr(self, weights: np.ndarray | None = None) -> sparse.csr_matrix:
        """CSR matrix whose row i holds the ``weights`` of i's in-edges (canonical
        order, ones by default) at their sources' columns: ``in_csr(w) @ x`` sums
        ``w * x[src]`` over each row from 0 in canonical order, as
        ``np.bincount(edge_dst, weights=w * x[edge_src])`` does."""
        n = self.num_nodes
        data = np.ones(self.num_edges) if weights is None else weights
        return sparse.csr_matrix((data, self.edge_src, self.in_ptr), shape=(n, n))

    def write_edge_list(self, path) -> None:
        columns = [self.edge_src, self.edge_dst] + ([] if self.edge_type is None else [self.edge_type])
        write_int_rows(path, np.column_stack(columns))

    def write_id_map(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for dense, original in enumerate(self.id_map):
                fh.write(f"{dense}\t{original}\n")


def scan_csr(features: np.ndarray) -> sparse.csr_matrix:
    """``sparse.csr_matrix(features)`` bit for bit, by one row-major scan of the nonzero mask: no COO step, no sort."""
    n, d = features.shape
    step = max(1, (1 << 16) // max(1, d))  # rows per block of the mask, which then stays in cache
    blocks = [np.flatnonzero(features[lo : lo + step] != 0) + lo * d for lo in range(0, max(n, 1), step)]
    at, indptr, columns = _positions_csr(blocks, n, d)
    return sparse.csr_matrix((features.ravel()[at], columns, indptr), shape=(n, d))


def _positions_csr(blocks: list, n: int, d: int):
    """The ascending row-major positions in an n x d matrix held by ``blocks``, joined, their CSR indptr and columns."""
    at = np.concatenate(blocks)
    indptr = np.searchsorted(at, np.arange(n + 1) * d)
    return at, indptr, at - np.repeat(np.arange(n) * d, np.diff(indptr))  # scipy makes both int32 while they fit


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
    ``AttributedGraph``, subgraphs included.  The one other way to make a
    graph is ``largest_weak_component``'s ``dataclasses.replace`` of a graph
    that is one component, whose arrays ``build_graph`` already ordered.

    Edge k gets the int64 key ``(dst * N + src) * T + rank``, with ``rank``
    the ``_dense_rank`` of the T distinct types (T = 1 and rank 0 untyped).  One
    ``np.sort`` of the keys gives the canonical (dst, src, type) order with
    repeats as equal neighbours, and ``divmod`` the ends and types back;
    where N * N * T passes 2^63, ``np.lexsort`` orders the (dst * N + src,
    rank) pairs instead.  One sort of ``src << b | canonical id``, b the bit
    length of the edge count, orders the edges by source, stably, into
    ``out_perm``; ``bincount``s give ``in_ptr`` and ``out_ptr``.  Where
    N * N or N * 2^b passes 2^63, a ``ValueError`` names N and the edge
    count before anything of size N is made."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if issparse(features) and not (features.format == "csr" and features.dtype == np.float64 and features.has_canonical_format):
        raise TypeError("sparse features must be a float64 CSR matrix with sorted, distinct columns in each row")
    features = features if issparse(features) else np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != num_nodes:
        rows = features.shape[0] if features.ndim == 2 else "?"
        raise DimensionError(f"feature matrix has {rows} rows, graph has {num_nodes} nodes")
    if src.size and (src.min() < 0 or src.max() >= num_nodes or dst.min() < 0 or dst.max() >= num_nodes):
        raise GraphFormatError("edge endpoint outside [0, N)")

    keep = src != dst
    kept, types, rank = int(np.count_nonzero(keep)), None, 0
    if edge_type is not None:
        types, rank = _dense_rank(np.asarray(edge_type, dtype=np.int64)[keep])
    n, t, b = int(num_nodes), 1 if types is None else max(types.size, 1), kept.bit_length()
    if n * n > _KEY_LIMIT or n << b > _KEY_LIMIT:
        raise ValueError(f"a graph of {n} nodes and {kept} edges overflows build_graph's int64 sort keys")
    cell = (dst * n + src)[keep]
    if n * n * t > _KEY_LIMIT:  # too many types to pack below the cell: sort the pairs
        order = np.lexsort((rank, cell))
        cell, rank = cell[order], rank[order]
        first = (np.diff(cell, prepend=-1) != 0) | (np.diff(rank, prepend=-1) != 0)
        cell, rank = cell[first], rank[first]
    else:
        key = np.sort(cell if types is None else cell * t + rank)
        key = key[np.diff(key, prepend=-1) != 0]  # keys are >= 0: the first of each run of repeats
        cell, rank = (key, 0) if types is None else np.divmod(key, t)
    dst, src = np.divmod(cell, n)
    out_perm = np.sort(src << b | np.arange(cell.size)) & ((1 << b) - 1)
    in_ptr, out_ptr = (np.append(0, np.cumsum(np.bincount(v, minlength=n))) for v in (dst, src))
    return AttributedGraph(
        num_nodes=num_nodes, num_edges=cell.size, edge_src=src, edge_dst=dst,
        edge_type=None if types is None else types[rank], in_ptr=in_ptr, out_ptr=out_ptr, out_perm=out_perm,
        features=features, id_map=id_map if id_map is not None else [str(i) for i in range(num_nodes)],
        dropped_self_loops=keep.size - kept, collapsed_duplicates=kept - cell.size,
    )


def _digit_csv(data: bytes) -> sparse.csr_matrix | None:
    """``scan_csr`` of the matrix of a CSV of one-digit fields, read from its bytes; None for any other layout."""
    width = data.find(b"\n") + 1  # d digits, d - 1 commas and a newline
    if width < 2 or width % 2 or len(data) % width:
        return None
    n, d, blocks = len(data) // width, width // 2, []
    # (digit, separator) pairs as uint16 less "0," ("0\n" last): a bad digit or separator leaves > 9
    pairs, expected = np.frombuffer(data, "<u2").reshape(n, d), np.frombuffer(b"0," * (d - 1) + b"0\n", "<u2")
    for lo in range(0, n, step := max(1, (1 << 16) // d)):  # blocks of rows as in scan_csr; no dense matrix
        digits = (pairs[lo : lo + step] - expected).ravel()
        hit = np.flatnonzero(digits != 0)  # a bool mask is scanned faster than the digits
        if (digits[hit] > 9).any():
            return None
        blocks.append(hit + lo * d)
    at, indptr, columns = _positions_csr(blocks, n, d)
    return sparse.csr_matrix(((pairs.ravel()[at] - expected[columns]).astype(np.float64), columns, indptr), shape=(n, d))


def load_features(path, expected_nodes: int | None = None) -> np.ndarray | sparse.csr_matrix:
    """Load a feature matrix from CSV (row order = node id) or the PINEF1
    binary format, detected by magic bytes: ``PINEF1``, the row and column
    counts as little-endian uint64 (a 22-byte header), then the rows as
    little-endian float32 and nothing after them.  The bytes are read once: a
    CSV of one-digit fields split by ``,``, every line ended by ``\n`` and of
    one width, gives ``scan_csr``'s float64 CSR of its matrix, and any other
    CSV is read from them by ``np.loadtxt`` as UTF-8 into a dense float64 array."""
    return _features(path, *_read_features(path), expected_nodes)


def _read_features(path) -> tuple[bytes, sparse.csr_matrix | None]:
    """A feature file's bytes and ``_digit_csv``'s CSR of them, None for any other layout."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data, None if data.startswith(MAGIC_FEATURES) else _digit_csv(data)


def _features(path, data: bytes, feats, expected_nodes: int | None):
    """``load_features``' matrix of a file's bytes: ``feats`` where already parsed, else PINEF1's or ``np.loadtxt``'s."""
    if feats is None:  # one-digit fields are finite; float32 blobs and np.loadtxt values may not be
        if data.startswith(MAGIC_FEATURES):
            n, d = struct.unpack_from("<QQ", data[:22].ljust(22, b"\0"), 6)  # a short header fails below
            extra = len(data) - 22 - 4 * n * d
            if extra < 0:
                raise GraphFormatError(f"{path}: PINEF1 file cut short")
            if not d:
                raise GraphFormatError(f"{path}: PINEF1 rows have 0 columns")
            if extra:
                raise GraphFormatError(f"{path}: {extra} trailing bytes after the {n} x {d} PINEF1 rows")
            feats = np.frombuffer(data, "<f4", n * d, 22).reshape(n, d).astype(np.float64)
        else:
            text = io.BytesIO(data)
            text.name = str(path)  # np.loadtxt's warning on a file with no rows names its stream
            try:
                feats = np.loadtxt(io.TextIOWrapper(text, encoding="utf-8"), delimiter=",", ndmin=2)
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


def _parse_in_child(path, data: bytes):
    """Fork a child that ``np.save``s ``_features``' matrix of CSV bytes into an unlinked temporary file
    and exits with 0, or with 1 on any error or warning; (pid, file), pid 0 where no fork can be had."""
    out = None
    try:
        out = tempfile.TemporaryFile(buffering=0)  # np.load reads it back by np.fromfile
        with warnings.catch_warnings():  # Python 3.12+ warns of a fork beside threads (numpy's BLAS pool),
            warnings.simplefilter("ignore", DeprecationWarning)  # harmless here: the child runs only np.loadtxt,
            pid = os.fork()  # the finiteness check and np.save, with every warning an error
    except (AttributeError, OSError):  # no temporary file, no os.fork on this platform, or the fork failed
        return 0, out
    if pid == 0:
        try:  # os._exit(0) skips the finally
            warnings.simplefilter("error")
            np.save(out, _features(path, data, None, None))
            os._exit(0)
        finally:
            os._exit(1)
    return pid, out


# The bytes that ``bytes.split`` splits on.  ``str.split`` also splits on
# U+001C..U+001F and on non-ASCII spaces, which _EXOTIC_SPACE matches.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\n\r\x0b\x0c")] = True
_EXOTIC_SPACE = re.compile(r"[^\S \t\n\r\x0b\x0c]")
_LINE_END = re.compile(rb"\r\n?|\n")
_CANONICAL_DIGITS = 18  # every decimal of at most 18 digits fits in int64
_RANK_SPAN = 4  # values below this many times their count are ranked by a mask, in about np.unique's memory
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


def _dense_rank(values: np.ndarray):
    """The distinct int64 ``values`` ascending and each value's index among them: by a presence mask and its ``cumsum``
    when all are nonnegative and below ``_RANK_SPAN`` times their count (one huge value makes no huge mask), else ``np.unique``."""
    top = int(values.max(initial=-1))
    if 0 <= top < _RANK_SPAN * values.size and values.min() >= 0:
        present = np.zeros(top + 1, dtype=bool)
        present[values] = True
        return np.flatnonzero(present), np.cumsum(present)[values] - 1
    else:
        return np.unique(values, return_inverse=True)


def _densify(values: np.ndarray, fast: np.ndarray, others: np.ndarray):
    """Dense index of each id token, and the ids in dense order, from the tokens' ``values``, which
    are canonical decimals (``fast``) and the other tokens as bytes (``others``): ids that ``int()``
    accepts by value, equal values by token string, then the other ids by string.

    Canonical decimals are ranked by ``_dense_rank`` of their values; when every token is canonical
    that rank is the order.  Otherwise the distinct canonical values, as strings, and the other
    tokens are ranked by one Python sort."""
    known, fast_inverse = _dense_rank(values[fast])
    if not others.size:
        return fast_inverse, list(map(str, known.tolist()))
    slot: dict[bytes, int] = {}  # distinct other tokens, in first-seen order
    other_inverse = np.array([slot.setdefault(w, len(slot)) for w in others], dtype=np.int64)
    names = list(map(str, known.tolist())) + [w.decode("utf-8") for w in slot]
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

    Node ids are tokens, densified to [0, N), N the number of distinct ids
    in the edge list: ids that ``int()`` accepts come first, by integer
    value, and tokens of equal value (``7``, ``07``, ``+7``) are distinct
    nodes ordered by token string; every other id follows, in string order.
    ``id_map`` holds the tokens in that order.  Canonical decimal ids and
    edge types share one rank, ``_dense_rank``.  Self-loops are dropped and
    repeated (src, dst[, type]) edges collapsed, counted in
    ``dropped_self_loops`` and ``collapsed_duplicates``.  When
    ``feature_path`` is None every node gets a single constant feature.
    ``reverse_edges`` flips edge orientation at load time, for raw citation
    files stored citing -> cited.  A file in
    ``_canonical_table``'s layout is parsed in one pass, to the same graph.

    A feature CSV of ``CHILD_PARSE_BYTES`` or more that ``load_features``
    reads by ``np.loadtxt``, which holds the GIL, is parsed in a forked child
    while the edge list is parsed here.  Where the child fails, warns or is
    killed, or no fork can be had, it is parsed here instead, to the same
    matrix or error, after any edge-list error; no child outlives the call.
    """
    path, read, pid, out = edge_list_path, None, 0, None
    if feature_path is not None:
        with contextlib.suppress(OSError):  # raised again after the edge list, whose errors come first
            read = _read_features(feature_path)
    try:
        if read and read[1] is None and not read[0].startswith(MAGIC_FEATURES) and len(read[0]) >= CHILD_PARSE_BYTES:
            pid, out = _parse_in_child(feature_path, read[0])
        data = _read_edge_bytes(path)
        table = _canonical_table(data)
        if table is None:
            etype, values, fast, others = _tokenized(path, data)
        else:
            etype = table[:, 2] if table.shape[1] == 3 else None
            values, fast, others = table[:, :2].T.ravel(), np.ones(2 * table.shape[0], dtype=bool), np.empty(0, object)
        index, id_map = _densify(values, fast, others)
        n = len(id_map)
        src, dst = np.split(index, 2)
        if reverse_edges:
            src, dst = dst, src

        if feature_path is None:
            features = np.ones((n, 1), dtype=np.float64)
        else:
            feature_data, feats = read or _read_features(feature_path)
            if pid:
                status, pid = os.waitpid(pid, 0)[1], 0
                if status == 0:  # else the child raised, warned or was killed: the parse here meets the same
                    out.seek(0)
                    feats = np.load(out)
            features = _features(feature_path, feature_data, feats, n)
    finally:
        if pid:  # an error or an interrupt came before the join: no child outlives the call
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if out:
            out.close()

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


def check_count(name: str, value, low: int) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an integer (a numpy one too, not a bool) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):  # 2.5, nan and True count nothing
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


def induced_subgraph(g: AttributedGraph, nodes) -> AttributedGraph:
    """Subgraph induced on ``nodes`` (as ``node_mask`` reads them), built by
    ``build_graph``: node k of the result is the k-th smallest id given.  Its
    features are a copy of those rows, in ``g``'s form, with a CSR cache of their own."""
    inside = node_mask(g.num_nodes, nodes)
    nodes, remap = np.flatnonzero(inside), np.cumsum(inside) - 1
    keep = inside[g.edge_src] & inside[g.edge_dst]
    return build_graph(
        nodes.size, remap[g.edge_src[keep]], remap[g.edge_dst[keep]], g.features[nodes],  # rows in g's form
        None if g.edge_type is None else g.edge_type[keep], [g.id_map[v] for v in nodes.tolist()],
    )


def weak_components(g: AttributedGraph) -> np.ndarray:
    """Component label per node under edge-direction-blind connectivity,
    read off the in-CSR as an undirected graph.  Labels are numbered in
    ascending order of each component's smallest node id."""
    _count, labels = csgraph.connected_components(g.in_csr(), directed=False)
    return labels


def largest_weak_component(g: AttributedGraph) -> AttributedGraph:
    """Induced subgraph on the largest weakly connected component; size ties
    go to the component containing the smallest node id.  A graph with no
    nodes gives an empty graph.  When one component holds every node the
    result shares ``g``'s arrays, features and their CSR inputs, with its own
    ``id_map``, zeroed loader counters, no path scores and no diffusion
    state, as a rebuilt component has."""
    labels = weak_components(g)
    if g.num_nodes and not labels.any():
        return replace(
            g, id_map=list(g.id_map), dropped_self_loops=0, collapsed_duplicates=0, path_scores=None, diffusion={}
        )
    best = np.argmax(np.bincount(labels, minlength=1))  # the first maximum: the tie rule
    return induced_subgraph(g, np.flatnonzero(labels == best))
