"""Single-head graph attention layers trained on link prediction.

Forward and backward passes are written directly against the graph's CSR
over destinations (``in_ptr``, ``edge_src``): per edge (j -> i) the
unnormalized coefficient is LeakyReLU((U h_j, s) + (U h_i, t)),
softmax-normalized over the edges incoming to i, and the updated embedding
of i is the attention-weighted sum of its in-neighbors' projections -- the
node's own representation is deliberately left out.  Nodes without in-edges
map to the zero vector.  Gradients are accumulated by reverse-mode
traversal of the same graph.

The layer-0 input is the feature matrix as ``scipy.sparse`` CSR
(``input_matrix``), so bag-of-words features cost only their nonzeros in
``X @ U^T`` and in the projection gradient ``X^T d``.  A training loop
builds it once and passes it to every ``forward``, and hands each taped
forward to ``loss_and_gradients`` so one forward per epoch serves both the
validation score and the next gradient.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .graph import AttributedGraph

MAGIC_MODEL = b"PINEM1"
LEAKY_SLOPE = 0.2
PROB_EPS = 1e-7


@dataclass
class GatLayer:
    proj: np.ndarray  # (d_out, d_in)
    attn_src: np.ndarray  # (d_out,) dotted with the source projection
    attn_dst: np.ndarray  # (d_out,) dotted with the destination projection

    @property
    def d_in(self) -> int:
        return self.proj.shape[1]

    @property
    def d_out(self) -> int:
        return self.proj.shape[0]


@dataclass
class GatModel:
    layers: list[GatLayer]
    leaky_slope: float = LEAKY_SLOPE
    # populated by forward(): per-layer attention per edge, in the canonical
    # edge order of the graph it was forwarded on
    attention: list[np.ndarray] | None = field(default=None, repr=False)
    attention_edges: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def parameters(self):
        for layer in self.layers:
            yield layer.proj
            yield layer.attn_src
            yield layer.attn_dst

    def astype(self, dtype) -> "GatModel":
        return GatModel(
            [GatLayer(l.proj.astype(dtype), l.attn_src.astype(dtype), l.attn_dst.astype(dtype)) for l in self.layers],
            self.leaky_slope,
        )


def init_model(
    feature_dim: int,
    hidden_size: int,
    num_layers: int,
    rng: np.random.Generator,
    dtype=np.float32,
) -> GatModel:
    """Glorot-uniform projections, zero attention vectors (uniform initial
    attention over in-edges)."""
    layers = []
    d_in = feature_dim
    for _ in range(num_layers):
        limit = np.sqrt(6.0 / (d_in + hidden_size))
        proj = rng.uniform(-limit, limit, size=(hidden_size, d_in)).astype(dtype)
        layers.append(GatLayer(proj, np.zeros(hidden_size, dtype=dtype), np.zeros(hidden_size, dtype=dtype)))
        d_in = hidden_size
    return GatModel(layers)


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


@dataclass
class _LayerTape:
    h_in: np.ndarray | sparse.csr_matrix  # CSR at layer 0, dense after
    projected: np.ndarray
    pre_act: np.ndarray  # per-edge coefficient before LeakyReLU
    alpha: np.ndarray
    adj: sparse.csr_matrix  # alpha laid on the graph's CSR, rows = destinations
    aggregated: np.ndarray  # node embeddings before inter-layer activation


def input_matrix(features: np.ndarray, dtype) -> sparse.csr_matrix:
    """The layer-0 input: the feature matrix as CSR in the model's dtype."""
    return sparse.csr_matrix(features, dtype=dtype)


def forward(model: GatModel, g: AttributedGraph, keep_tape: bool = False, x: sparse.csr_matrix | None = None):
    """Run the attention layers over the graph's features.

    ``x`` is the layer-0 input from ``input_matrix``; it is built from
    ``g.features`` when not given.  Returns final node embeddings; caches
    per-layer attention on the model.  With ``keep_tape`` the intermediates
    needed for the backward pass are returned as a second value.
    """
    if model.layers[0].d_in != g.feature_dim:
        raise ValueError(
            f"layer 1 expects width {model.layers[0].d_in}, graph features have {g.feature_dim}"
        )
    dtype = model.layers[0].proj.dtype
    src, dst = g.edge_src, g.edge_dst
    n = g.num_nodes
    in_deg = np.diff(g.in_ptr)
    has_in = in_deg > 0
    seg_starts = g.in_ptr[:-1][has_in]
    h = input_matrix(g.features, dtype) if x is None else x
    tapes: list[_LayerTape] = []
    attention: list[np.ndarray] = []
    for li, layer in enumerate(model.layers):
        projected = h @ layer.proj.T
        score_src = projected @ layer.attn_src
        score_dst = projected @ layer.attn_dst
        pre_act = score_src[src] + score_dst[dst]
        w = _leaky(pre_act, model.leaky_slope)
        if w.size:
            # in-edges of a node are contiguous in canonical order
            seg_max = np.repeat(np.maximum.reduceat(w, seg_starts), in_deg[has_in])
            exp = np.exp(w - seg_max)
            denom = np.bincount(dst, weights=exp, minlength=n).astype(dtype)
            alpha = (exp / denom[dst]).astype(dtype)
        else:
            alpha = w
        adj = sparse.csr_matrix((alpha, src, g.in_ptr), shape=(n, n))
        aggregated = adj @ projected
        attention.append(alpha)
        if keep_tape:
            tapes.append(_LayerTape(h, projected, pre_act, alpha, adj, aggregated))
        h = _elu(aggregated) if li < model.num_layers - 1 else aggregated
    model.attention = attention
    model.attention_edges = (src, dst)
    if keep_tape:
        return h, tapes
    return h


def predict_edge(h_out: np.ndarray, j: int, i: int) -> float:
    """Logistic of the dot product of the two final embeddings."""
    return float(_sigmoid(np.dot(h_out[j], h_out[i]))[0])


def _sigmoid(x):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def edge_scores(h_out: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Edge-existence probabilities for an (E, 2) array of (src, dst) pairs."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    logits = np.einsum("ij,ij->i", h_out[pairs[:, 0]], h_out[pairs[:, 1]])
    return _sigmoid(logits)


def loss_and_gradients(
    model: GatModel,
    g: AttributedGraph,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
    taped_forward: tuple | None = None,
):
    """Binary cross-entropy over the balanced batch plus analytic gradients
    for every projection and attention vector.

    ``taped_forward`` is the ``(h_out, tapes)`` pair that
    ``forward(model, g, keep_tape=True)`` returned for the current
    parameters; without it the forward runs here.

    Probabilities are clamped to [eps, 1-eps] before the logs; inside the
    clamp the loss gradient w.r.t. the logit is the usual (z - y), and a
    clamped probability contributes zero gradient (the clamp is flat), which
    keeps finite differences of the computed loss exact.
    """
    dtype = model.layers[0].proj.dtype
    n = g.num_nodes
    h_out, tapes = taped_forward if taped_forward is not None else forward(model, g, keep_tape=True)
    pairs = np.concatenate([np.asarray(pos_edges).reshape(-1, 2), np.asarray(neg_edges).reshape(-1, 2)]).astype(np.int64)
    labels = np.concatenate([np.ones(len(pos_edges)), np.zeros(len(neg_edges))])

    z = edge_scores(h_out, pairs)
    z_clamped = np.clip(z, PROB_EPS, 1.0 - PROB_EPS)
    loss = -np.sum(labels * np.log(z_clamped) + (1.0 - labels) * np.log(1.0 - z_clamped))

    inside = (z > PROB_EPS) & (z < 1.0 - PROB_EPS)
    dlogit = np.where(inside, z - labels, 0.0).astype(dtype)
    # logit_k = h[a_k] . h[b_k]: d_h[a] += dlogit h[b] and d_h[b] += dlogit h[a]
    pair_grad = sparse.csr_matrix((dlogit, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    d_h = pair_grad @ h_out + pair_grad.T @ h_out

    grads = _backward(model, g, tapes, d_h)
    return float(loss), grads


def _backward(model: GatModel, g: AttributedGraph, tapes: list[_LayerTape], d_out: np.ndarray):
    src, dst = g.edge_src, g.edge_dst
    n = g.num_nodes
    dtype = d_out.dtype
    grads = []
    d_h = d_out
    for li in reversed(range(model.num_layers)):
        layer = model.layers[li]
        tape = tapes[li]
        if li < model.num_layers - 1:
            # through the inter-layer ELU
            a = tape.aggregated
            d_agg = d_h * np.where(a > 0, 1.0, np.exp(np.minimum(a, 0.0))).astype(dtype)
        else:
            d_agg = d_h
        alpha, projected = tape.alpha, tape.projected
        # aggregated_i = sum_e alpha_e projected[src_e]
        d_alpha = np.einsum("ij,ij->i", d_agg[dst], projected[src])
        d_proj = tape.adj.T @ d_agg
        # softmax over in-edge segments
        seg = np.bincount(dst, weights=alpha * d_alpha, minlength=n)
        d_w = alpha * (d_alpha - seg[dst])
        d_pre = d_w * np.where(tape.pre_act > 0, 1.0, model.leaky_slope)
        d_score_src = np.bincount(src, weights=d_pre, minlength=n)
        d_score_dst = np.bincount(dst, weights=d_pre, minlength=n)
        d_attn_src = projected.T @ d_score_src.astype(dtype)
        d_attn_dst = projected.T @ d_score_dst.astype(dtype)
        d_proj = d_proj + d_score_src[:, None].astype(dtype) * layer.attn_src + d_score_dst[:, None].astype(dtype) * layer.attn_dst
        d_u = np.ascontiguousarray((tape.h_in.T @ d_proj).T)  # laid out like proj
        if li > 0:  # the input features carry no gradient
            d_h = d_proj @ layer.proj
        grads.append((d_u, d_attn_src, d_attn_dst))
    grads.reverse()
    return grads


def save_model(model: GatModel, path) -> None:
    """Versioned binary dump: magic, layer count, per-layer dims, f32 blobs.
    The attention cache is not persisted (recomputed by a forward pass)."""
    with open(path, "wb") as fh:
        fh.write(MAGIC_MODEL)
        fh.write(struct.pack("<Q", model.num_layers))
        for layer in model.layers:
            fh.write(struct.pack("<QQ", layer.d_in, layer.d_out))
        for layer in model.layers:
            layer.proj.astype("<f4").tofile(fh)
            layer.attn_src.astype("<f4").tofile(fh)
            layer.attn_dst.astype("<f4").tofile(fh)


def load_model(path) -> GatModel:
    """Read a ``save_model`` file.  A file cut short or with bytes after the
    last layer raises ``ValueError`` naming the path and the layer."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:6] != MAGIC_MODEL:
        raise ValueError(f"{path}: not a model file (bad magic {data[:6]!r})")
    if len(data) < 14:
        raise ValueError(f"{path}: truncated before the layer count")
    (num_layers,) = struct.unpack_from("<Q", data, 6)
    offset = 14 + 16 * num_layers
    if len(data) < offset:
        raise ValueError(f"{path}: truncated in the dimensions of {num_layers} layers")
    dims = [struct.unpack_from("<QQ", data, 14 + 16 * k) for k in range(num_layers)]
    layers = []
    for li, (d_in, d_out) in enumerate(dims, start=1):
        blobs = []
        for count in (d_in * d_out, d_out, d_out):
            end = offset + 4 * count
            if end > len(data):
                raise ValueError(f"{path}: layer {li} is truncated ({len(data) - offset} of {4 * count} bytes)")
            blobs.append(np.frombuffer(data, dtype="<f4", count=count, offset=offset).astype(np.float32))
            offset = end
        proj, s, t = blobs
        layers.append(GatLayer(proj.reshape(d_out, d_in), s, t))
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes after layer {num_layers}")
    return GatModel(layers)
