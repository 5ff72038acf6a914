import dataclasses
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pine
from pine import gat, graph, pine_score
from pine.diffusion import influence_spread
from pine.graph import build_graph, subgraph_by_edge_type
from pine.metrics import spearman
from pine.pine_score import calibrate_by_out_degree, score_graph, select_edge_types
from pine.pipeline import _load, compute_method_scores
from pine.scores import ScoreVector
from pine.train import TrainConfig

from conftest import planted_heterogeneous_graph, random_graph


def randomized_model(g, rng, hidden=4, layers=1):
    model = gat.init_model(g.feature_dim, hidden, layers, rng, dtype=np.float64)
    for layer in model.layers:
        layer.attn_src[:] = rng.normal(size=hidden) * 0.5
        layer.attn_dst[:] = rng.normal(size=hidden) * 0.5
    return model


SMALL_TRAIN = TrainConfig(learning_rate=1e-2, hidden_size=8, num_layers=1, max_epochs=30, patience=10, rng_seed=0)


def record_results(monkeypatch, name):
    """The list of what each call of ``pine_score.<name>`` returns, from now on."""
    results, inner = [], getattr(pine_score, name)
    monkeypatch.setattr(pine_score, name, lambda *args, **kwargs: results.append(inner(*args, **kwargs)) or results[-1])
    return results


class TestPineScores:
    def test_single_edge(self, rng):
        g = build_graph(2, [0], [1], rng.normal(size=(2, 3)))
        model = randomized_model(g, rng)
        values = score_graph(g, model).values
        assert values[0] == pytest.approx(1.0)
        assert values[1] == 0.0

    def test_star_leaves_sum_to_one(self, rng):
        g = build_graph(6, [1, 2, 3, 4, 5], [0, 0, 0, 0, 0], rng.normal(size=(6, 3)))
        model = randomized_model(g, rng)
        values = score_graph(g, model).values
        assert values[0] == 0.0
        assert values[1:].sum() == pytest.approx(1.0, abs=1e-9)
        _h, tapes = gat.forward(model, g)
        by_src = {int(s): a for s, a in zip(g.edge_src, tapes[0].alpha)}
        for leaf in range(1, 6):
            assert values[leaf] == pytest.approx(by_src[leaf])

    def test_score_conservation(self, rng):
        g = random_graph(40, 0.15, rng)
        model = randomized_model(g, rng, layers=2)
        for layer in range(2):
            total = score_graph(g, model, layer).values.sum()
            assert total == pytest.approx(int((g.in_degrees() > 0).sum()), abs=1e-6)

    def test_bounded_by_out_degree(self, rng):
        g = random_graph(30, 0.2, rng)
        model = randomized_model(g, rng)
        assert np.all(score_graph(g, model).values <= g.out_degrees() + 1e-9)

    def test_never_forwarded_model_scores(self, rng):
        g = random_graph(12, 0.3, rng)
        model = gat.init_model(g.feature_dim, 4, 1, rng)
        total = score_graph(g, model).values.sum()
        assert total == pytest.approx(int((g.in_degrees() > 0).sum()), abs=1e-5)

    def test_layer_out_of_range(self, rng):
        g = random_graph(5, 0.4, rng)
        model = randomized_model(g, rng)
        with pytest.raises(ValueError, match="layer_index"):
            score_graph(g, model, 3)

    def test_other_graph_between_scorings_leaves_scores_unchanged(self, rng):
        g1 = random_graph(10, 0.3, rng)
        g2 = random_graph(10, 0.3, np.random.default_rng(99))
        model = randomized_model(g1, rng)
        before = score_graph(g2, model).values
        score_graph(g1, model)
        assert np.array_equal(score_graph(g2, model).values, before)


class TestHeterogeneousPine:
    """``select_edge_types`` sums the selected types' scores in the pass that trains and scores them."""

    def test_single_type_equals_subgraph_scores(self, monkeypatch):
        g, imp = planted_heterogeneous_graph(n=80, planted_edges=200, noise_edges=60, seed=1)
        trained = record_results(monkeypatch, "train")
        result = select_edge_types(g, [(v, float(imp[v])) for v in range(80)], top_k_types=1, config=SMALL_TRAIN)
        [(model, _log)] = trained
        assert result.selected == [0]
        assert np.allclose(result.scores.values, score_graph(subgraph_by_edge_type(g, 0), model).values)

    def test_two_types_sum_elementwise(self, monkeypatch):
        g, _imp = planted_heterogeneous_graph(n=80, planted_edges=200, noise_edges=120, seed=2)
        parts = record_results(monkeypatch, "score_graph")
        labels = [(v, float(degree)) for v, degree in enumerate(g.out_degrees())]
        result = select_edge_types(g, labels, top_k_types=2, config=SMALL_TRAIN)
        assert len(result.selected) == len(parts) == 2
        assert np.allclose(result.scores.values, parts[0].values + parts[1].values)

    def test_empty_selection_warns_and_zeros(self, caplog):
        g, _imp = planted_heterogeneous_graph(n=50, planted_edges=100, noise_edges=40, seed=3)
        with caplog.at_level(logging.WARNING, logger="pine.pine_score"):
            result = select_edge_types(g, [(v, 1.0) for v in range(50)], top_k_types=3, config=SMALL_TRAIN)
        assert result.selected == [] and result.scores.values.shape == (g.num_nodes,)
        assert np.all(result.scores.values == 0.0)
        assert any("empty" in rec.message for rec in caplog.records)


class TestSelectEdgeTypes:
    def test_planted_type_recovered(self):
        g, imp = planted_heterogeneous_graph(seed=7)
        rng = np.random.default_rng(7)
        labeled = rng.choice(g.num_nodes, size=300, replace=False)
        labels = [(int(v), float(imp[v])) for v in labeled]
        result = select_edge_types(g, labels, top_k_types=3, config=SMALL_TRAIN)
        assert 0 in result.selected
        assert result.correlations[0] > 0.3

    def test_single_positive_type_selected(self):
        g, imp = planted_heterogeneous_graph(n=400, planted_edges=1500, noise_edges=0, seed=8)
        g = build_graph(
            g.num_nodes, g.edge_src, g.edge_dst, g.features, edge_type=np.zeros(g.num_edges, dtype=np.int64)
        )
        rng = np.random.default_rng(8)
        labeled = rng.choice(g.num_nodes, size=100, replace=False)
        labels = [(int(v), float(imp[v])) for v in labeled]
        result = select_edge_types(g, labels, top_k_types=1, config=SMALL_TRAIN)
        assert result.selected == [0]

    def test_constant_labels_select_nothing(self, caplog):
        g, _imp = planted_heterogeneous_graph(n=300, planted_edges=900, noise_edges=200, seed=9)
        labels = [(v, 1.0) for v in range(100)]
        with caplog.at_level(logging.WARNING):
            result = select_edge_types(g, labels, top_k_types=3, config=SMALL_TRAIN)
        assert result.selected == []
        assert any("no edge types" in rec.message for rec in caplog.records)

    def test_tiny_type_skipped(self):
        # a 2-edge type cannot be split for link prediction and must be skipped
        g, imp = planted_heterogeneous_graph(n=200, planted_edges=600, noise_edges=2, seed=10)
        labels = [(int(v), float(imp[v])) for v in range(80)]
        result = select_edge_types(g, labels, top_k_types=3, config=SMALL_TRAIN)
        assert set(result.skipped) >= {1} or set(result.skipped) >= {2}

    def test_feature_csr_built_once_for_every_type(self, monkeypatch):
        # each type subgraph keeps the graph's features, and so its CSR input
        g, imp = planted_heterogeneous_graph(n=200, planted_edges=600, noise_edges=300, seed=9)
        calls = []
        build = graph.scan_csr
        monkeypatch.setattr(graph, "scan_csr", lambda features: calls.append(features) or build(features))
        config = TrainConfig(learning_rate=1e-2, hidden_size=4, max_epochs=3, rng_seed=0)
        result = select_edge_types(g, [(v, float(imp[v])) for v in range(0, 200, 4)], top_k_types=3, config=config)
        assert len(result.correlations) == 3 and len(calls) == 1 and calls[0] is g.features

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_fewer_than_one_type_rejected(self, rng, top_k):
        # [:-1] would silently skip the smallest type, and [:0] would train nothing
        g = random_graph(10, 0.3, rng, typed=2)
        with pytest.raises(ValueError, match=f"top_k_types must be at least 1, got {top_k}"):
            select_edge_types(g, [(0, 1.0)], top_k_types=top_k, config=SMALL_TRAIN)

    def test_untyped_graph_rejected(self, rng):
        g = random_graph(10, 0.3, rng)
        with pytest.raises(ValueError, match="edge types"):
            select_edge_types(g, [(0, 1.0)], config=SMALL_TRAIN)


class TestCalibration:
    def test_no_out_edges_all_zero(self):
        g = build_graph(3, [], [], np.ones((3, 1)))
        scores = ScoreVector(np.array([1.0, 2.0, 3.0]))
        assert np.all(calibrate_by_out_degree(scores, g).values == 0.0)

    def test_uniform_scores_rank_by_out_degree(self, rng):
        g = random_graph(15, 0.3, rng)
        scores = ScoreVector(np.ones(15))
        calibrated = calibrate_by_out_degree(scores, g)
        assert np.all(np.diff(g.out_degrees()[np.argsort(calibrated.values)]) >= 0)

    def test_matches_direct_formula(self, rng):
        g = random_graph(20, 0.25, rng)
        raw = rng.random(20)
        calibrated = calibrate_by_out_degree(ScoreVector(raw), g)
        assert np.allclose(calibrated.values, raw * np.log1p(g.out_degrees()))

    def test_preserves_order_at_equal_out_degree(self, rng):
        g = build_graph(4, [0, 1], [2, 3], np.ones((4, 1)))  # nodes 0,1 both out-degree 1
        scores = ScoreVector(np.array([0.3, 0.9, 0.0, 0.0]))
        calibrated = calibrate_by_out_degree(scores, g)
        assert calibrated.values[1] > calibrated.values[0]

    def test_uses_whole_graph_degrees(self):
        # calibration must use full-graph out-degree, not a subgraph's
        g, _imp = planted_heterogeneous_graph(n=60, planted_edges=150, noise_edges=80, seed=11)
        sub = subgraph_by_edge_type(g, 0)
        scores = ScoreVector(np.ones(g.num_nodes))
        full = calibrate_by_out_degree(scores, g)
        assert np.allclose(full.values, np.log1p(g.out_degrees()))
        assert not np.allclose(g.out_degrees(), sub.out_degrees())


SCORE_BYTES = """
import hashlib
import numpy as np
from pine import gat
from pine.graph import build_graph
from pine.pine_score import score_graph

rng = np.random.default_rng(0)
n = 2750
g = build_graph(n, rng.integers(0, n, 10000), rng.integers(0, n, 10000), (rng.random((n, 64)) < 0.1) * 1.0)
model = gat.init_model(64, 512, 1, rng)
for layer in model.layers:
    layer.attn_src[:] = rng.normal(size=512)
    layer.attn_dst[:] = rng.normal(size=512)
print(hashlib.sha256(score_graph(g, model).values.tobytes()).hexdigest())
"""


def test_scores_do_not_depend_on_the_openblas_thread_count():
    # a BLAS gemv of the n x 512 projection by an attention vector gave other last bits with one
    # OpenBLAS thread than with two on this graph's shape (the seed-7 cora-train scores too)
    src = str(Path(pine.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", SCORE_BYTES], env=env, capture_output=True, text=True, check=True)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_pine_seeds_outspread_out_degree_under_icp(seed, workloads, tmp_path):
    # the paper's claim on graphs whose features follow their topics, with cora-train's config: on
    # these graphs pine's seeds win under IC+, lose under SIR and win under LT+ on some seeds only.
    # Run r of each call draws from the same stream, so the per-run gaps are paired.
    generated = workloads.write_workload(workloads.WORKLOADS["cora-train"], seed, str(tmp_path))
    config, g, seed_count = _load(generated.config)
    dconf = dataclasses.replace(config.diffusion, model="icp", num_runs=1000)
    counts = {}
    for method in ("out_degree", "pine"):
        seeds = compute_method_scores(g, method, config, seed_count).top_fraction(config.seed_fraction)
        counts[method] = influence_spread(g, dconf, seeds).activated_counts
    gap = (counts["pine"] - counts["out_degree"]) / g.num_nodes
    assert gap.mean() > 10 * gap.std(ddof=1) / np.sqrt(gap.size), (gap.mean(), gap.std(ddof=1))
