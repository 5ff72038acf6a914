"""Importance scores from trained attention distributions, including the
edge-typed variant with type selection and out-degree calibration."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import gat, metrics
from .graph import AttributedGraph, subgraph_by_edge_type
from .scores import ScoreVector
from .split import SplitError, split_edges
from .train import TrainConfig, train

logger = logging.getLogger(__name__)
TOP_K_TYPES = 100  # edge types select_edge_types tries, largest first


def score_graph(g: AttributedGraph, model: gat.GatModel, layer_index: int = 0) -> ScoreVector:
    """Sum of a node's outgoing attention weights at the chosen layer of a
    forward pass over ``g``: how much its out-neighbors rely on it as an
    information source."""
    if not 0 <= layer_index < model.num_layers:
        raise ValueError(f"layer_index {layer_index} out of range for {model.num_layers} layers")
    _h, tapes = gat.forward(model, g)
    alpha = tapes[layer_index].alpha
    values = np.bincount(g.edge_src, weights=alpha.astype(np.float64), minlength=g.num_nodes)
    return ScoreVector(values)


@dataclass
class TypeSelectionResult:
    selected: list[int]
    correlations: dict[int, float]
    scores: ScoreVector  # the heterogeneous score: the selected types' scores, summed
    skipped: list[int]


def _type_sizes(g: AttributedGraph) -> list[tuple[int, int]]:
    types, counts = np.unique(g.edge_type, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    return [(int(types[i]), int(counts[i])) for i in order]


def select_edge_types(
    g: AttributedGraph,
    val_labels: list[tuple[int, float]],
    config: TrainConfig,
    top_k_types: int = TOP_K_TYPES,
    layer_index: int = 0,
) -> TypeSelectionResult:
    """Heterogeneous pine in one pass: train one attention model per edge-type
    subgraph (largest types first), keep the types whose scores correlate
    positively, by Spearman over labeled nodes touching that subgraph, with
    the validation importance, and sum the kept types' scores.  No model is
    kept.  ``top_k_types`` below 1 raises ``ValueError``."""
    if top_k_types < 1:
        raise ValueError(f"top_k_types must be at least 1, got {top_k_types}")
    if g.edge_type is None:
        raise ValueError("graph has no edge types")
    if not val_labels:
        raise ValueError("validation labels are empty")
    label_nodes = np.array([v for v, _ in val_labels], dtype=np.int64)
    label_values = np.array([imp for _, imp in val_labels], dtype=np.float64)

    selected, correlations, skipped = [], {}, []
    total = np.zeros(g.num_nodes)
    for type_id, size in _type_sizes(g)[:top_k_types]:
        sub = subgraph_by_edge_type(g, type_id)
        try:
            split = split_edges(sub, rng_seed=config.rng_seed)
            model, _log = train(sub, split, config)
        except SplitError as exc:
            logger.info("edge type %d skipped (%d edges): %s", type_id, size, exc)
            skipped.append(type_id)
            continue
        values = score_graph(sub, model, layer_index).values
        touched = (sub.in_degrees() + sub.out_degrees())[label_nodes] > 0
        if touched.sum() < 2:
            logger.info("edge type %d skipped: fewer than 2 labeled nodes in subgraph", type_id)
            skipped.append(type_id)
            continue
        rho = metrics.spearman(values[label_nodes[touched]], label_values[touched])
        correlations[type_id] = rho
        if np.isfinite(rho) and rho > 0:
            selected.append(type_id)
            total += values
    if not selected:
        logger.warning("no edge types exhibited positive correlation: selection is empty, scores are all zero")
    scores = ScoreVector(total)
    return TypeSelectionResult(selected, correlations, scores, skipped)


def calibrate_by_out_degree(scores: ScoreVector, g: AttributedGraph) -> ScoreVector:
    """Multiply each score by log(1 + out-degree) taken from the whole
    graph (not a type subgraph)."""
    out_deg = g.out_degrees().astype(np.float64)
    return ScoreVector(scores.values * np.log1p(out_deg))
