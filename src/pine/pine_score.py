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
    return ScoreVector(values, f"pine[layer={layer_index}]")


@dataclass
class TypeSelectionResult:
    selected: list[int]
    correlations: dict[int, float]
    models: dict[int, gat.GatModel]
    skipped: list[int]


def _type_sizes(g: AttributedGraph) -> list[tuple[int, int]]:
    types, counts = np.unique(g.edge_type, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    return [(int(types[i]), int(counts[i])) for i in order]


def select_edge_types(
    g: AttributedGraph,
    val_labels: list[tuple[int, float]],
    top_k_types: int = TOP_K_TYPES,
    config: TrainConfig | None = None,
    layer_index: int = 0,
) -> TypeSelectionResult:
    """Train one attention model per edge-type subgraph (largest types
    first) and keep the types whose scores correlate positively, by
    Spearman over labeled nodes touching that subgraph, with the validation
    importance."""
    if g.edge_type is None:
        raise ValueError("graph has no edge types")
    if not val_labels:
        raise ValueError("validation labels are empty")
    config = config or TrainConfig()
    label_nodes = np.array([v for v, _ in val_labels], dtype=np.int64)
    label_values = np.array([imp for _, imp in val_labels], dtype=np.float64)

    result = TypeSelectionResult([], {}, {}, [])
    for type_id, size in _type_sizes(g)[:top_k_types]:
        sub = subgraph_by_edge_type(g, type_id)
        try:
            split = split_edges(sub, rng_seed=config.rng_seed)
            model, _log = train(sub, split, config)
        except SplitError as exc:
            logger.info("edge type %d skipped (%d edges): %s", type_id, size, exc)
            result.skipped.append(type_id)
            continue
        scores = score_graph(sub, model, layer_index)
        touched = (sub.in_degrees() + sub.out_degrees())[label_nodes] > 0
        if touched.sum() < 2:
            logger.info("edge type %d skipped: fewer than 2 labeled nodes in subgraph", type_id)
            result.skipped.append(type_id)
            continue
        rho = metrics.spearman(scores.values[label_nodes[touched]], label_values[touched])
        result.correlations[type_id] = rho
        result.models[type_id] = model
        if np.isfinite(rho) and rho > 0:
            result.selected.append(type_id)
    if not result.selected:
        logger.warning("no edge types exhibited positive correlation; selection is empty")
    return result


def heterogeneous_pine(
    g: AttributedGraph,
    selected: list[int],
    models: dict[int, gat.GatModel],
    layer_index: int = 0,
) -> ScoreVector:
    """Sum of type-restricted scores over the selected edge types."""
    values = np.zeros(g.num_nodes)
    if not selected:
        logger.warning("empty type selection: heterogeneous scores are all zero")
    for type_id in selected:
        sub = subgraph_by_edge_type(g, type_id)
        values += score_graph(sub, models[type_id], layer_index).values
    return ScoreVector(values, f"pine_heterogeneous[{sorted(selected)}]")


def calibrate_by_out_degree(scores: ScoreVector, g: AttributedGraph) -> ScoreVector:
    """Multiply each score by log(1 + out-degree) taken from the whole
    graph (not a type subgraph)."""
    out_deg = g.out_degrees().astype(np.float64)
    return ScoreVector(scores.values * np.log1p(out_deg), scores.method_name + "+log-degree")
