"""Ranking metrics for validating score vectors against ground-truth
importance: NDCG@k, Spearman rank correlation, Precision@k."""

from __future__ import annotations

import warnings

import numpy as np


def _descending_order(scores: np.ndarray) -> np.ndarray:
    """Node order by descending score, ties by ascending id."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(scores.size), -scores))


def _dcg(gains: np.ndarray) -> float:
    positions = np.arange(1, gains.size + 1)
    return float(np.sum(gains / np.log2(positions + 1)))


def ndcg_at_k(predicted, truth, k: int) -> float:
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    if predicted.size != truth.size:
        raise ValueError("predicted and truth lengths differ")
    if not np.any(truth > 0):
        raise ValueError("NDCG undefined: ground-truth importance is all zero")
    k = min(k, truth.size)
    dcg = _dcg(truth[_descending_order(predicted)][:k])
    idcg = _dcg(truth[_descending_order(truth)][:k])
    return dcg / idcg


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged (fractional ranks).  A tie group of c
    values ending at rank e gets e - (c - 1) / 2, exact in float64."""
    _values, group, counts = np.unique(np.asarray(x, dtype=np.float64), return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def spearman(predicted, truth) -> float:
    """Pearson correlation of average-ranked vectors; NaN (with a warning)
    when either side is constant."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.size != truth.size:
        raise ValueError("predicted and truth lengths differ")
    r1 = average_ranks(predicted)
    r2 = average_ranks(truth)
    d1 = r1 - r1.mean()
    d2 = r2 - r2.mean()
    v1 = np.sqrt(np.sum(d1 * d1))
    v2 = np.sqrt(np.sum(d2 * d2))
    if v1 == 0.0 or v2 == 0.0:
        warnings.warn("spearman undefined for constant input; returning NaN")
        return float("nan")
    return float(np.sum(d1 * d2) / (v1 * v2))


def precision_at_k(predicted, truth, k: int) -> float:
    """Top-k set overlap; boundary ties broken by ascending node id on both
    sides identically."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    if predicted.size != truth.size:
        raise ValueError("predicted and truth lengths differ")
    top_pred = set(_descending_order(predicted)[:k].tolist())
    top_true = set(_descending_order(truth)[:k].tolist())
    return len(top_pred & top_true) / k
