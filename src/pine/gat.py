"""Single-head graph attention layers trained on link prediction.

Forward and backward passes are written directly against the graph's CSR
over destinations (``in_ptr``, ``edge_src``): per edge (j -> i) the
unnormalized coefficient is LeakyReLU((h_j U, s) + (h_i U, t)),
softmax-normalized over the edges incoming to i, and the updated embedding
of i is the attention-weighted sum of its in-neighbors' projections -- the
node's own representation is deliberately left out.  Nodes without in-edges
map to the zero vector.  Gradients are accumulated by reverse-mode
traversal of the same graph.

Each coefficient is taken as h_j (U s) + h_i (U t), so only the nodes S with
out-edges are projected (``h[S] @ U``) and no product is a BLAS gemv, whose
sums change with its thread count.  ``U`` is stored (d_in, d_out).  The
layer-0 input is the CSR ``X`` of the features, with ``X[S]``, built once
per graph and kept on it (``graph_input``, ``source_input``); the gradient
reads ``X[S].T`` as a CSC view.  A training epoch's one forward serves both
the validation score and, through ``loss_and_gradients``, the next gradient.

Each layer's hidden units form ``BLOCKS`` fixed column blocks, as in a
column-parallel linear layer: block 0's products run on the caller, block 1's
on one worker thread (``in_blocks``), and the caller adds their partial sums
over the hidden units, so results depend on neither CPU count nor timing.

A ``GatModel`` holds parameters only.  The attention of a pass is part of
what ``forward`` returns: ``tapes[layer].alpha``, one weight per edge in the
graph's canonical edge order.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graph import AttributedGraph

MAGIC_MODEL = b"PINEM1"
LEAKY_SLOPE = 0.2
PROB_EPS = 1e-7
BLOCKS = 2  # column blocks per layer, whatever the CPU count: the blocks fix the sums' order
_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="pine-gat")
os.register_at_fork(after_in_child=lambda: globals().update(_WORKER=ThreadPoolExecutor(max_workers=1)))


@dataclass
class GatLayer:
    proj: np.ndarray  # (d_in, d_out): a layer's input times proj is its projection
    attn_src: np.ndarray  # (d_out,) dotted with the source projection
    attn_dst: np.ndarray  # (d_out,) dotted with the destination projection

    @property
    def d_in(self) -> int:
        return self.proj.shape[0]

    @property
    def d_out(self) -> int:
        return self.proj.shape[1]


@dataclass
class GatModel:
    layers: list[GatLayer]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def parameters(self):
        for layer in self.layers:
            yield layer.proj
            yield layer.attn_src
            yield layer.attn_dst


def init_model(
    feature_dim: int,
    hidden_size: int,
    num_layers: int,
    rng: np.random.Generator,
    dtype=np.float32,
) -> GatModel:
    """Glorot-uniform projections, zero attention vectors (uniform initial
    attention over in-edges).  A projection is drawn in the model file's (d_out, d_in) layout, then transposed."""
    layers = []
    d_in = feature_dim
    for _ in range(num_layers):
        limit = np.sqrt(6.0 / (d_in + hidden_size))
        proj = rng.uniform(-limit, limit, size=(hidden_size, d_in)).astype(dtype).T.copy()
        layers.append(GatLayer(proj, np.zeros(hidden_size, dtype=dtype), np.zeros(hidden_size, dtype=dtype)))
        d_in = hidden_size
    return GatModel(layers)


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


@dataclass
class _LayerTape:
    h_in: np.ndarray | sparse.csr_matrix  # the layer's input: CSR X at layer 0, the dense h after
    h_src: np.ndarray | sparse.csr_matrix  # h_in's rows at the nodes with out-edges, S
    attn_proj: tuple  # (U attn_src, U attn_dst), each summed over the column blocks
    projected: list[np.ndarray]  # h_src @ proj per column block: one row per node of S
    pre_act: np.ndarray  # per-edge coefficient before LeakyReLU
    alpha: np.ndarray
    adj: sparse.csr_matrix  # alpha laid on the graph's CSR, rows = destinations, columns = S
    aggregated: list[np.ndarray]  # node embeddings before inter-layer activation, per column block


def _blocks(width: int) -> list[slice]:
    """``width`` hidden units in ``BLOCKS`` column blocks, the first ones wider; fewer below ``BLOCKS`` units."""
    return [slice(b[0], b[-1] + 1) for b in np.array_split(np.arange(width), BLOCKS) if b.size]


def in_blocks(fn, items) -> list:
    """``[fn(item) for item in items]``: the first here, the rest on the worker; all end before it returns or raises."""
    first, *rest = items
    later = [_WORKER.submit(fn, item) for item in rest]
    try:
        return [fn(first), *(f.result() for f in later)]
    finally:
        wait(later)


def input_matrix(features: np.ndarray, dtype) -> sparse.csr_matrix:
    """The layer-0 input: the feature matrix as CSR in the model's dtype."""
    return sparse.csr_matrix(features, dtype=dtype)


def graph_input(g: AttributedGraph, dtype) -> sparse.csr_matrix:
    """``X``: ``g.features`` as CSR in ``dtype``, built once per features array and kept on ``g``."""
    cached = g.feature_csr.get(np.dtype(dtype))
    if cached is None or cached[0] is not g.features:
        cached = g.feature_csr[np.dtype(dtype)] = (g.features, input_matrix(g.features, dtype))
    return cached[1]


def source_input(g: AttributedGraph, dtype):
    """``(X, S, columns, X[S])``: ``graph_input``'s ``X``, the nodes with out-edges, each edge's source's
    row among them and their rows of ``X``; built once per ``X`` and kept on ``g``."""
    x = graph_input(g, dtype)
    cached = g.source_csr.get(np.dtype(dtype))
    if cached is None or cached[0] is not x:
        has_out = np.diff(g.out_ptr) > 0
        sources = np.flatnonzero(has_out)
        cached = g.source_csr[np.dtype(dtype)] = (x, sources, (np.cumsum(has_out) - 1)[g.edge_src], x[sources])
    return cached


def _matvec(m, v: np.ndarray) -> np.ndarray:
    """``m @ v`` for a sparse ``m``, an einsum for a dense one: a BLAS gemv's sums depend on its thread count."""
    return np.einsum("ij,j->i", m, v) if isinstance(m, np.ndarray) else m @ v


def forward(model: GatModel, g: AttributedGraph):
    """Run the attention layers over the graph's features, read through
    ``graph_input``.  Returns ``(h, tapes)``: the final node embeddings and
    one ``_LayerTape`` per layer, holding that layer's attention (``alpha``,
    in the graph's canonical edge order) and the intermediates the backward
    pass needs.
    """
    if model.layers[0].d_in != g.feature_dim:
        raise ValueError(f"layer 1 expects width {model.layers[0].d_in}, graph features have {g.feature_dim}")
    h, sources, columns, h_src = source_input(g, model.layers[0].proj.dtype)
    tapes: list[_LayerTape] = []
    for li, layer in enumerate(model.layers):
        h_src = np.take(h, sources, axis=0) if li else h_src

        def project(c):
            return h_src @ (u := layer.proj[:, c]), _matvec(u, layer.attn_src[c]), _matvec(u, layer.attn_dst[c])

        projected, u_src, u_dst = zip(*in_blocks(project, _blocks(layer.d_out)))
        attn_proj = (sum(u_src), sum(u_dst))
        pre_act = _matvec(h, attn_proj[0])[g.edge_src] + _matvec(h, attn_proj[1])[g.edge_dst]
        alpha = g.in_edge_softmax(_leaky(pre_act))
        adj = sparse.csr_matrix((alpha, columns, g.in_ptr), shape=(g.num_nodes, sources.size))
        aggregated = in_blocks(lambda p: adj @ p, projected)
        tapes.append(_LayerTape(h, h_src, attn_proj, projected, pre_act, alpha, adj, aggregated))
        h = np.concatenate([_elu(a) if li < model.num_layers - 1 else a for a in aggregated], axis=1)
    return h, tapes


def _sigmoid(x):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    e = np.exp(-np.abs(x))  # never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def edge_scores(h_out: np.ndarray | list, pairs: np.ndarray) -> np.ndarray:
    """Edge-existence probabilities for an (E, 2) array of (src, dst) pairs, from ``h_out`` or the list
    of its column blocks, whose dot products are added in block order.  Rows are gathered by
    ``np.take``: on narrow rows the fancy index ``h[ids]`` is several times slower."""
    pairs, blocks = np.asarray(pairs, dtype=np.int64).reshape(-1, 2), h_out if isinstance(h_out, list) else [h_out]
    return _sigmoid(sum(in_blocks(lambda a: np.einsum("ij,ij->i", *np.take(a, pairs.T, axis=0)), blocks)))


def loss_and_gradients(
    model: GatModel,
    g: AttributedGraph,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
    taped_forward: tuple | None = None,
):
    """Binary cross-entropy over the balanced batch plus analytic gradients
    for every projection and attention vector.

    ``taped_forward`` is the ``(h_out, tapes)`` pair that ``forward``
    returned for the current parameters; without it the forward runs here.

    Probabilities are clamped to [eps, 1-eps] before the logs; inside the
    clamp the loss gradient w.r.t. the logit is the usual (z - y), and a
    clamped probability contributes zero gradient (the clamp is flat), which
    keeps finite differences of the computed loss exact.
    """
    dtype, n = model.layers[0].proj.dtype, g.num_nodes
    _h, tapes = taped_forward if taped_forward is not None else forward(model, g)
    pairs = np.concatenate([np.asarray(pos_edges).reshape(-1, 2), np.asarray(neg_edges).reshape(-1, 2)]).astype(np.int64)
    labels = np.concatenate([np.ones(len(pos_edges)), np.zeros(len(neg_edges))])

    z = edge_scores(tapes[-1].aggregated, pairs)
    z_clamped = np.clip(z, PROB_EPS, 1.0 - PROB_EPS)
    loss = -np.sum(labels * np.log(z_clamped) + (1.0 - labels) * np.log(1.0 - z_clamped))

    inside = (z > PROB_EPS) & (z < 1.0 - PROB_EPS)
    dlogit = np.where(inside, z - labels, 0.0).astype(dtype)
    # logit_k = h[a_k] . h[b_k]: d_h[a] += dlogit h[b] and d_h[b] += dlogit h[a]
    rows, cols = np.concatenate([pairs, pairs[:, ::-1]]).T
    pair_grad = sparse.csr_matrix((np.concatenate([dlogit, dlogit]), (rows, cols)), shape=(n, n))
    d_h = in_blocks(lambda a: pair_grad @ a, tapes[-1].aggregated)

    grads = _backward(model, g, tapes, d_h)
    return float(loss), grads


def _backward(model: GatModel, g: AttributedGraph, tapes: list[_LayerTape], d_h: list[np.ndarray]):
    """Every layer's parameter gradients from ``d_h``, the last layer's output gradient per column block."""
    src, dst, n = g.edge_src, g.edge_dst, g.num_nodes
    _x, sources, columns, _x_src = source_input(g, model.layers[0].proj.dtype)
    grads = []
    for li in reversed(range(model.num_layers)):
        layer, tape = model.layers[li], tapes[li]
        dtype, blocks = layer.proj.dtype, _blocks(layer.d_out)
        if li < model.num_layers - 1:  # through the inter-layer ELU
            d_h = [d * np.where(a > 0, 1.0, np.exp(np.minimum(a, 0.0))).astype(dtype) for d, a in zip(d_h, tape.aggregated)]

        def spread(k):  # aggregated_i = sum_e alpha_e projected[column_e]
            d_alpha = np.einsum("ij,ij->i", np.take(d_h[k], dst, axis=0), np.take(tape.projected[k], columns, axis=0))
            return d_alpha, tape.adj.T @ d_h[k]

        d_alpha, d_proj = zip(*in_blocks(spread, range(len(blocks))))
        d_alpha, alpha = sum(d_alpha), tape.alpha
        # softmax over in-edge segments
        seg = np.bincount(dst, weights=alpha * d_alpha, minlength=n)
        d_w = alpha * (d_alpha - seg[dst])
        d_pre = d_w * np.where(tape.pre_act > 0, 1.0, LEAKY_SLOPE)
        # score_src = h_in @ (proj @ attn_src), likewise score_dst
        d_score_src = np.bincount(src, weights=d_pre, minlength=n).astype(dtype)
        d_score_dst = np.bincount(dst, weights=d_pre, minlength=n).astype(dtype)
        h_d_src, h_d_dst = _matvec(tape.h_in.T, d_score_src), _matvec(tape.h_in.T, d_score_dst)
        d_u, d_attn_src, d_attn_dst = (np.empty_like(p) for p in (layer.proj, layer.attn_src, layer.attn_dst))

        def gather(k):
            c, u = blocks[k], layer.proj[:, blocks[k]]
            d_attn_src[c], d_attn_dst[c] = _matvec(u.T, h_d_src), _matvec(u.T, h_d_dst)
            np.add(tape.h_src.T @ d_proj[k], np.outer(h_d_src, layer.attn_src[c]), out=d_u[:, c])
            d_u[:, c] += np.outer(h_d_dst, layer.attn_dst[c])
            return d_proj[k] @ u.T if li else None  # this block's share of the input rows' gradient

        d_rows = in_blocks(gather, range(len(blocks)))
        if li > 0:  # the input features carry no gradient
            d_in = np.outer(d_score_src, tape.attn_proj[0])
            d_in += np.outer(d_score_dst, tape.attn_proj[1])
            d_in[sources] += sum(d_rows)
            d_h = [d_in[:, c] for c in _blocks(layer.d_in)]
        grads.insert(0, (d_u, d_attn_src, d_attn_dst))
    return grads


def save_model(model: GatModel, path) -> None:
    """Versioned binary dump: magic, layer count, per-layer dims, f32 blobs; ``proj`` as (d_out, d_in)."""
    with open(path, "wb") as fh:
        fh.write(MAGIC_MODEL)
        fh.write(struct.pack("<Q", model.num_layers))
        for layer in model.layers:
            fh.write(struct.pack("<QQ", layer.d_in, layer.d_out))
        for layer in model.layers:
            layer.proj.T.astype("<f4").tofile(fh)
            layer.attn_src.astype("<f4").tofile(fh)
            layer.attn_dst.astype("<f4").tofile(fh)


def load_model(path) -> GatModel:
    """Read a ``save_model`` file.  A file cut short, with trailing bytes, no
    layer, a width of 0 or unchained widths raises ``ValueError`` naming the path and the layer."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:6] != MAGIC_MODEL:
        raise ValueError(f"{path}: not a model file (bad magic {data[:6]!r})")
    if len(data) < 14:
        raise ValueError(f"{path}: truncated before the layer count")
    (num_layers,) = struct.unpack_from("<Q", data, 6)
    if not num_layers:
        raise ValueError(f"{path}: layer count is 0")
    offset = 14 + 16 * num_layers
    if len(data) < offset:
        raise ValueError(f"{path}: truncated in the dimensions of {num_layers} layers")
    dims = [struct.unpack_from("<QQ", data, 14 + 16 * k) for k in range(num_layers)]
    layers = []
    for li, (d_in, d_out) in enumerate(dims, start=1):
        if not d_in or not d_out:
            raise ValueError(f"{path}: layer {li} has width 0 ({d_in} -> {d_out})")
        if li > 1 and d_in != dims[li - 2][1]:
            raise ValueError(f"{path}: layer {li} takes width {d_in}, layer {li - 1} gives {dims[li - 2][1]}")
        blobs = []
        for count in (d_in * d_out, d_out, d_out):
            end = offset + 4 * count
            if end > len(data):
                raise ValueError(f"{path}: layer {li} is truncated ({len(data) - offset} of {4 * count} bytes)")
            blobs.append(np.frombuffer(data, dtype="<f4", count=count, offset=offset).astype(np.float32))
            offset = end
        proj, s, t = blobs
        layers.append(GatLayer(proj.reshape(d_out, d_in).T.copy(), s, t))
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes after layer {num_layers}")
    return GatModel(layers)
