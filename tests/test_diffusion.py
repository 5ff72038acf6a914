import itertools

import numpy as np
import pytest

from pine import diffusion
from pine.diffusion import (
    DiffusionConfig,
    compute_influence_weights,
    critical_sir_beta,
    influence_spread,
    run_ic_plus,
    run_lt_plus,
    run_sir,
)
from pine.graph import EmptyGraphError, build_graph

from conftest import random_graph


class FixedRng:
    """Stub generator returning a constant for every uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


class TestInfluenceWeights:
    def test_identical_in_neighbors_split_evenly(self):
        g = build_graph(5, [0, 1, 2, 3], [4, 4, 4, 4], np.ones((5, 3)))
        w = compute_influence_weights(g, 0.5, 0.5)
        assert np.allclose(w.combined, 0.25)

    def test_single_in_neighbor_weight_one(self):
        g = build_graph(2, [0], [1], np.random.default_rng(0).normal(size=(2, 3)))
        for a1 in (0.0, 0.3, 1.0):
            w = compute_influence_weights(g, a1, 1.0 - a1)
            assert np.allclose(w.combined, [1.0])

    def test_softmax_of_known_similarities(self):
        # sims into node 2: sim(0,2)=1 (identical), sim(1,2)=0 (orthogonal)
        feats = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        g = build_graph(3, [0, 1], [2, 2], feats)
        w = compute_influence_weights(g, 0.0, 1.0)
        e = np.e
        by_src = {int(s): w.combined[k] for k, s in enumerate(g.edge_src)}
        assert by_src[0] == pytest.approx(e / (e + 1), abs=1e-9)
        assert by_src[1] == pytest.approx(1 / (e + 1), abs=1e-9)

    def test_per_destination_sums_are_one(self, rng):
        g = random_graph(30, 0.15, rng)
        w = compute_influence_weights(g, 0.3, 0.7)
        for arr in (w.structural, w.semantic, w.combined):
            sums = np.bincount(g.edge_dst, weights=arr, minlength=g.num_nodes)
            with_in = g.in_degrees() > 0
            assert np.allclose(sums[with_in], 1.0)
            assert np.all((arr >= 0) & (arr <= 1))

    def test_bad_alphas(self):
        g = build_graph(2, [0], [1], np.ones((2, 1)))
        with pytest.raises(ValueError):
            compute_influence_weights(g, 0.7, 0.7)


def lt_fixed_point_oracle(g, influence, theta, seeds):
    """Brute-force fixed-point iteration over python sets."""
    active = set(seeds)
    while True:
        added = False
        for i in range(g.num_nodes):
            if i in active:
                continue
            total = sum(
                influence[k]
                for k in range(g.num_edges)
                if g.edge_dst[k] == i and int(g.edge_src[k]) in active
            )
            if total >= theta[i]:
                active.add(i)
                added = True
        if not added:
            return active


class TestLtPlus:
    def test_all_seeds_all_active(self, rng):
        g = random_graph(10, 0.2, rng)
        w = compute_influence_weights(g)
        mask = run_lt_plus(g, w, range(10), np.random.default_rng(0))
        assert mask.all()

    def test_single_edge_activates_through_threshold(self):
        g = build_graph(2, [0], [1], np.ones((2, 2)))
        w = compute_influence_weights(g)
        mask = run_lt_plus(g, w, [0], FixedRng(0.5))
        assert mask.tolist() == [True, True]  # influence 1.0 >= 0.5

    def test_diamond_matches_fixed_point_oracle(self):
        g = build_graph(4, [0, 0, 1, 2], [1, 2, 3, 3], np.random.default_rng(5).normal(size=(4, 3)))
        w = compute_influence_weights(g)
        for theta_val in (0.1, 0.4, 0.6, 0.9):
            mask = run_lt_plus(g, w, [0], FixedRng(theta_val))
            oracle = lt_fixed_point_oracle(g, w.combined, np.full(4, theta_val), {0})
            assert set(np.nonzero(mask)[0].tolist()) == oracle


def ic_exact_expected_spread(g, influence, seeds):
    """Exact expectation by enumerating live-edge configurations: each edge
    is live independently with its influence probability; the activated set
    is everything reachable from the seeds over live edges."""
    m = g.num_edges
    expected = 0.0
    for config in itertools.product([0, 1], repeat=m):
        prob = 1.0
        for k, live in enumerate(config):
            prob *= influence[k] if live else (1.0 - influence[k])
        if prob == 0.0:
            continue
        active = set(seeds)
        frontier = list(seeds)
        adj = {}
        for k, live in enumerate(config):
            if live:
                adj.setdefault(int(g.edge_src[k]), []).append(int(g.edge_dst[k]))
        while frontier:
            v = frontier.pop()
            for u in adj.get(v, []):
                if u not in active:
                    active.add(u)
                    frontier.append(u)
        expected += prob * len(active)
    return expected


class TestIcPlus:
    def test_chain_with_unit_weights(self):
        g = build_graph(4, [0, 1, 2], [1, 2, 3], np.ones((4, 2)))
        w = compute_influence_weights(g)  # single in-neighbor => weight 1
        mask = run_ic_plus(g, w, [0], np.random.default_rng(0))
        assert mask.all()

    def test_empty_seeds(self, rng):
        g = random_graph(8, 0.3, rng)
        w = compute_influence_weights(g)
        assert not run_ic_plus(g, w, [], np.random.default_rng(0)).any()

    def test_matches_exact_enumeration(self):
        g = build_graph(3, [0, 0, 1], [1, 2, 2], np.random.default_rng(2).normal(size=(3, 4)))
        w = compute_influence_weights(g)
        exact = ic_exact_expected_spread(g, w.combined, {0})
        runs = 100_000
        config = DiffusionConfig(model="icp", num_runs=runs, rng_seed=9)
        result = influence_spread(g, config, [0])
        counts = result.activated_counts
        se = counts.std(ddof=1) / np.sqrt(runs)
        assert abs(counts.mean() - exact) <= 3 * se + 1e-12


class TestSir:
    def test_beta_zero_only_seeds(self, rng):
        g = random_graph(10, 0.3, rng)
        mask = run_sir(g, 0.0, 1.0, [0, 1], np.random.default_rng(0))
        assert mask.sum() == 2

    def test_full_path_infection(self):
        g = build_graph(5, [0, 1, 2, 3], [1, 2, 3, 4], np.ones((5, 1)))
        mask = run_sir(g, 1.0, 1.0, [0], np.random.default_rng(0))
        assert mask.all()

    def test_single_edge_closed_form(self):
        g = build_graph(2, [0], [1], np.ones((2, 1)))
        runs = 100_000
        config = DiffusionConfig(model="sir", sir_beta=0.3, sir_gamma=1.0, num_runs=runs, rng_seed=4)
        result = influence_spread(g, config, [0])
        # P(node 1 ever infected) = beta
        p_hat = (result.activated_counts - 1).mean()
        se = np.sqrt(0.3 * 0.7 / runs)
        assert abs(p_hat - 0.3) <= 3 * se

    def test_max_steps_caps_path(self):
        g = build_graph(5, [0, 1, 2, 3], [1, 2, 3, 4], np.ones((5, 1)))
        mask = run_sir(g, 1.0, 1.0, [0], np.random.default_rng(0), max_steps=2)
        assert mask.sum() == 3  # one hop per step

    def test_bad_parameters(self):
        g = build_graph(2, [0], [1], np.ones((2, 1)))
        with pytest.raises(ValueError):
            run_sir(g, 1.5, 1.0, [0], np.random.default_rng(0))

    def test_critical_beta_in_range(self, rng):
        g = random_graph(40, 0.1, rng)
        assert 0.0 < critical_sir_beta(g) <= 1.0


class TestInfluenceSpread:
    def test_all_seeds_spread_one(self, rng):
        g = random_graph(12, 0.2, rng)
        for model in ("ltp", "icp", "sir"):
            config = DiffusionConfig(model=model, num_runs=20, rng_seed=0)
            r = influence_spread(g, config, range(12))
            assert r.mean_spread == 1.0
            assert r.std_spread == 0.0

    def test_empty_seeds_zero(self, rng):
        g = random_graph(12, 0.2, rng)
        config = DiffusionConfig(model="ltp", num_runs=20, rng_seed=0)
        # all-theta > 0 holds almost surely with the uniform draw
        assert influence_spread(g, config, []).mean_spread == 0.0

    def test_deterministic_across_worker_counts(self, rng, monkeypatch):
        g = random_graph(25, 0.15, rng)
        config = DiffusionConfig(model="icp", num_runs=64, rng_seed=7)
        results = []
        for threads in ("1", "8"):
            monkeypatch.setenv("PINE_THREADS", threads)
            results.append(influence_spread(g, config, [0, 1, 2]).activated_counts)
        assert np.array_equal(results[0], results[1])

    def test_spread_bounds(self, rng):
        g = random_graph(20, 0.2, rng)
        config = DiffusionConfig(model="ltp", num_runs=50, rng_seed=3)
        r = influence_spread(g, config, [0, 1])
        assert 2 / 20 <= r.mean_spread <= 1.0
        assert np.allclose(r.mean_spread, r.activated_counts.mean() / 20)

    def test_monotone_in_seed_set(self, rng):
        g = random_graph(15, 0.25, rng)
        config = DiffusionConfig(model="icp", num_runs=10_000, rng_seed=11)
        small = influence_spread(g, config, [0, 1])
        large = influence_spread(g, config, [0, 1, 2, 3])
        pooled = np.sqrt(
            small.activated_counts.var(ddof=1) / config.num_runs
            + large.activated_counts.var(ddof=1) / config.num_runs
        ) / g.num_nodes
        assert large.mean_spread >= small.mean_spread - 3 * pooled

    def test_alpha2_zero_ignores_features(self, rng):
        g = random_graph(15, 0.25, rng)
        config = DiffusionConfig(model="ltp", alpha1=1.0, alpha2=0.0, num_runs=2000, rng_seed=5)
        base = influence_spread(g, config, [0, 1])
        g.features = np.random.default_rng(99).normal(size=g.features.shape)
        scrambled = influence_spread(g, config, [0, 1])
        # identical weights => identical RNG stream => identical outcomes
        assert np.array_equal(base.activated_counts, scrambled.activated_counts)


class TestLiveEdgeEngine:
    """influence_spread samples live-edge graphs; the step-wise simulators
    are its reference."""

    @pytest.mark.parametrize("model, gamma", [("ltp", 1.0), ("icp", 1.0), ("sir", 1.0), ("sir", 0.4)])
    def test_matches_reference_simulators(self, model, gamma):
        rng = np.random.default_rng(77)
        runs, seeds, beta = 3000, [0, 1], 0.3
        for trial in range(3):
            g = random_graph(10, 0.25, rng)
            w = compute_influence_weights(g)
            config = DiffusionConfig(model=model, sir_beta=beta, sir_gamma=gamma, num_runs=runs, rng_seed=trial)
            engine = influence_spread(g, config, seeds).activated_counts
            reference = np.empty(runs)
            for r in range(runs):
                stream = np.random.default_rng([1000 + trial, r])
                if model == "ltp":
                    mask = run_lt_plus(g, w, seeds, stream)
                elif model == "icp":
                    mask = run_ic_plus(g, w, seeds, stream)
                else:
                    mask = run_sir(g, beta, gamma, seeds, stream)
                reference[r] = mask.sum()
            pooled = np.sqrt(engine.var(ddof=1) / runs + reference.var(ddof=1) / runs)
            assert abs(engine.mean() - reference.mean()) <= 4 * pooled + 1e-12

    @pytest.mark.parametrize("model", ["ltp", "icp", "sir"])
    def test_counts_independent_of_chunk_size(self, model, rng, monkeypatch):
        g = random_graph(20, 0.15, rng)
        config = DiffusionConfig(model=model, sir_gamma=0.5, num_runs=40, rng_seed=3)
        default = influence_spread(g, config, [0, 1]).activated_counts
        for runs_per_chunk in (1, 3):  # 3 does not divide num_runs
            monkeypatch.setattr(diffusion, "CHUNK_BUDGET", runs_per_chunk * (g.num_nodes + g.num_edges))
            assert np.array_equal(influence_spread(g, config, [0, 1]).activated_counts, default)

    def test_sir_without_recovery_reaches_all_descendants(self):
        # gamma = 0: an infected node retries every step, so each out-edge fires
        g = build_graph(5, [0, 1, 2, 4], [1, 2, 3, 0], np.ones((5, 1)))
        config = DiffusionConfig(model="sir", sir_beta=0.2, sir_gamma=0.0, num_runs=20)
        assert influence_spread(g, config, [1]).activated_counts.tolist() == [3] * 20

    def test_max_steps_keeps_stepwise_sir(self, rng):
        g = random_graph(20, 0.2, rng)
        config = DiffusionConfig(model="sir", sir_beta=0.4, sir_gamma=0.5, max_steps=3, num_runs=30, rng_seed=8)
        counts = influence_spread(g, config, [0, 5]).activated_counts
        expected = [
            run_sir(g, 0.4, 0.5, [0, 5], np.random.default_rng([8, r]), max_steps=3).sum() for r in range(30)
        ]
        assert counts.tolist() == expected

    @pytest.mark.parametrize("model", ["ltp", "icp", "sir"])
    def test_empty_graph_is_named_error(self, model):
        g = build_graph(0, [], [], np.zeros((0, 2)))
        with pytest.raises(EmptyGraphError, match="no nodes"):
            influence_spread(g, DiffusionConfig(model=model, num_runs=3), [])
        with pytest.raises(EmptyGraphError, match="no nodes"):
            critical_sir_beta(g)
