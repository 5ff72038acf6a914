"""Adam training loop for the link-prediction objective, with per-epoch
negative resampling, validation-AUC early stopping, and ROC AUC.

Each epoch runs one forward pass: the taped forward after the Adam step
scores the validation pairs and is handed to the next epoch's gradient."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import gat
from .graph import AttributedGraph
from .metrics import average_ranks
from .split import EdgeSplit, sample_negatives


@dataclass
class TrainConfig:
    learning_rate: float = 5e-4
    hidden_size: int = 512
    num_layers: int = 1
    max_epochs: int = 500
    patience: int = 20
    rng_seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    dtype: type = np.float32

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class TrainLog:
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_auc: float = 0.0
    stopped_early: bool = False


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC; tied scores contribute one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need at least one positive and one negative label")
    ranks = average_ranks(scores)
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - pos.size * (pos.size + 1) / 2.0) / (pos.size * neg.size))


class Adam:
    """Adam whose step writes into two scratch buffers per parameter instead
    of allocating temporaries; the operations run in the order of the plain
    expressions in the comments, so updates are the same bit for bit."""

    def __init__(self, params: list[np.ndarray], config: TrainConfig):
        self.config = config
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        c = self.config
        self.t += 1
        for p, grad, m, v, (a, b) in zip(params, grads, self.m, self.v, self.scratch):
            np.copyto(a, grad, casting="unsafe")  # g = grad.astype(p.dtype)
            m *= c.beta1
            np.multiply(a, 1 - c.beta1, out=b)
            m += b  # m += (1 - beta1) * g
            v *= c.beta2
            np.multiply(a, 1 - c.beta2, out=b)
            b *= a
            v += b  # v += (1 - beta2) * g * g
            np.divide(v, 1 - c.beta2**self.t, out=a)  # v_hat
            np.sqrt(a, out=a)
            a += c.adam_eps
            np.divide(m, 1 - c.beta1**self.t, out=b)  # m_hat
            b *= c.learning_rate
            b /= a
            p -= b  # p -= lr * m_hat / (sqrt(v_hat) + eps)


def evaluate_auc(
    model: gat.GatModel,
    message_graph: AttributedGraph,
    pos: np.ndarray,
    neg: np.ndarray,
    h: np.ndarray | None = None,
) -> float:
    """Validation ROC AUC of the model's edge scores; ``h`` is the final
    embedding of a forward already run on ``message_graph``."""
    if h is None:
        h = gat.forward(model, message_graph)
    scores = np.concatenate([gat.edge_scores(h, pos), gat.edge_scores(h, neg)])
    labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    return roc_auc(scores, labels)


def train(g: AttributedGraph, split: EdgeSplit, config: TrainConfig) -> tuple[gat.GatModel, TrainLog]:
    """Train on the split's message structure with supervision positives and
    per-epoch resampled negatives; early-stop on validation AUC and return
    the best-validation parameters."""
    rng = np.random.default_rng(config.rng_seed)
    model = gat.init_model(g.feature_dim, config.hidden_size, config.num_layers, rng, dtype=config.dtype)
    mg = split.message_graph(g)
    optimizer = Adam(list(model.parameters()), config)
    log = TrainLog()
    best_params = None
    since_best = 0
    n_sup = len(split.supervision_pos)
    x = gat.input_matrix(mg.features, config.dtype)
    taped = gat.forward(model, mg, keep_tape=True, x=x)
    for epoch in range(config.max_epochs):
        neg = sample_negatives(g, n_sup, rng)
        loss, grads = gat.loss_and_gradients(model, mg, split.supervision_pos, neg, taped_forward=taped)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"loss became non-finite at epoch {epoch}; try a smaller learning rate "
                f"(current {config.learning_rate})"
            )
        flat_grads = [a for triple in grads for a in triple]
        optimizer.step(list(model.parameters()), flat_grads)
        taped = gat.forward(model, mg, keep_tape=True, x=x)
        val_auc = evaluate_auc(model, mg, split.val_pos, split.val_neg, h=taped[0])
        log.epochs.append({"epoch": epoch, "loss": loss, "val_auc": val_auc})
        if val_auc > log.best_val_auc:
            log.best_val_auc = val_auc
            log.best_epoch = epoch
            best_params = copy.deepcopy(model.layers)
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                log.stopped_early = True
                break
    if best_params is not None:
        model.layers = best_params
        model.attention = None
        model.attention_edges = None
    return model, log
