import dataclasses
import itertools
import re

import networkx as nx
import numpy as np
import pytest

from pine import diffusion
from pine.diffusion import (
    MODELS,
    DiffusionConfig,
    InfluenceWeights,
    compute_influence_weights,
    critical_sir_beta,
    influence_spread,
)
from pine.graph import AttributedGraph, EmptyGraphError, build_graph, node_mask

from conftest import random_graph


# The step-by-step LT+, IC+ and SIR cascades that define the models; the
# live-edge sampler of influence_spread is checked against them.
def run_lt_plus(g: AttributedGraph, weights: InfluenceWeights, seeds, rng) -> np.ndarray:
    """One linear-threshold cascade; returns the activated node mask.

    Thresholds are drawn uniformly per node from ``rng``; a node activates
    once the summed influence of its active in-neighbors reaches its
    threshold.  Rounds repeat until a full pass adds nothing.
    """
    active = node_mask(g.num_nodes, seeds, "seed")
    theta = rng.random(g.num_nodes)
    influence = weights.combined
    src, dst = g.edge_src, g.edge_dst
    while True:
        incoming = np.bincount(dst, weights=influence * active[src], minlength=g.num_nodes)
        newly = (~active) & (incoming >= theta)
        if not newly.any():
            return active
        active |= newly


def run_ic_plus(g: AttributedGraph, weights: InfluenceWeights, seeds, rng) -> np.ndarray:
    """One independent-cascade run; each newly activated node gets a single
    activation attempt on each of its inactive out-neighbors."""
    active = node_mask(g.num_nodes, seeds, "seed")
    influence = weights.combined
    frontier = np.nonzero(active)[0]
    out_ptr, out_perm, dst = g.out_ptr, g.out_perm, g.edge_dst
    while frontier.size:
        next_active = np.zeros(g.num_nodes, dtype=bool)
        for j in frontier:
            edge_ids = out_perm[out_ptr[j] : out_ptr[j + 1]]
            targets = dst[edge_ids]
            open_mask = ~active[targets]
            if not open_mask.any():
                continue
            draws = rng.random(targets.size)
            hits = open_mask & (draws < influence[edge_ids])
            next_active[targets[hits]] = True
        next_active &= ~active
        active |= next_active
        frontier = np.nonzero(next_active)[0]
    return active


def run_sir(g: AttributedGraph, beta: float, gamma: float, seeds, rng, max_steps: int | None = None) -> np.ndarray:
    """One SIR run along out-edges; returns the ever-infected mask
    (infected union recovered).  Each step, every infected node infects each
    susceptible out-neighbour with probability ``beta``, then recovers with
    probability ``gamma``; at most ``max_steps`` steps run."""
    if not 0.0 <= beta <= 1.0 or not 0.0 <= gamma <= 1.0:
        raise ValueError("beta and gamma must lie in [0, 1]")
    infected = node_mask(g.num_nodes, seeds, "seed")
    recovered = np.zeros(g.num_nodes, dtype=bool)
    out_ptr, out_perm, dst = g.out_ptr, g.out_perm, g.edge_dst
    step = 0
    while infected.any() and (max_steps is None or step < max_steps):
        step += 1
        current = np.nonzero(infected)[0]
        newly = np.zeros(g.num_nodes, dtype=bool)
        for j in current:
            targets = dst[out_perm[out_ptr[j] : out_ptr[j + 1]]]
            susceptible = ~(infected[targets] | recovered[targets])
            if susceptible.any():
                hits = susceptible & (rng.random(targets.size) < beta)
                newly[targets[hits]] = True
        recovers = rng.random(current.size) < gamma
        infected[current[recovers]] = False
        recovered[current[recovers]] = True
        infected |= newly & ~recovered
    return infected | recovered


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

    @pytest.mark.parametrize("alpha1, alpha2", [(np.nan, np.nan), (np.nan, 0.5), (0.5, np.nan)])
    def test_nan_alphas_rejected(self, alpha1, alpha2):
        # NaN fails every comparison, so a check written as "reject if below 0" lets it through
        g = build_graph(2, [0], [1], np.ones((2, 1)))
        message = "^alpha1 and alpha2 must be nonnegative and sum to 1$"
        with pytest.raises(ValueError, match=message):
            compute_influence_weights(g, alpha1, alpha2)
        with pytest.raises(ValueError, match=message):
            DiffusionConfig(alpha1=alpha1, alpha2=alpha2)


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

    @pytest.mark.parametrize("seed", range(5))
    def test_degrees_match_networkx_graph(self, seed):
        # reciprocal pairs count once; nodes past the last endpoint are isolated
        rng = np.random.default_rng(seed)
        n, m = 60, 150
        src, dst = rng.integers(0, 45, m), rng.integers(0, 45, m)
        back = rng.random(m) < 0.4
        g = build_graph(n, np.concatenate([src, dst[back]]), np.concatenate([dst, src[back]]), np.ones((n, 1)))
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
        deg = np.array([G.degree(v) for v in range(n)])
        assert np.array_equal(diffusion._undirected_degrees(g), deg)
        k, k2 = deg.mean(), (deg.astype(np.float64) ** 2).mean()
        assert critical_sir_beta(g) == min(1.0, 1.5 * k / (k2 - k))


class TestKeptInputs:
    """A call fills in what its config leaves out and keeps it in
    ``g.diffusion`` for the next call on that graph."""

    def test_given_beta_is_used_as_given(self, rng):
        g = random_graph(15, 0.25, rng)
        config = DiffusionConfig(model="sir", sir_beta=0.2, num_runs=7)
        influence_spread(g, config, [0])
        kept = g.diffusion["sir"]
        assert kept[0] is config and kept[1] is config  # nothing to fill in
        assert "weights" not in g.diffusion
        influence_spread(g, dataclasses.replace(config), [1])  # an equal config
        assert g.diffusion["sir"] is kept

    @pytest.mark.parametrize("model", ["ltp", "icp"])
    def test_missing_weights_are_computed(self, rng, model):
        g = random_graph(15, 0.25, rng)
        config = DiffusionConfig(model=model, alpha1=0.3, alpha2=0.7, num_runs=7)
        influence_spread(g, config, [0])
        kept, expected = g.diffusion["weights"], compute_influence_weights(g, 0.3, 0.7)
        assert g.diffusion[model][1] is config
        assert (kept.alpha1, kept.alpha2) == (0.3, 0.7)
        assert np.array_equal(kept.structural, expected.structural)
        assert np.array_equal(kept.semantic, expected.semantic)

    def test_ltp_and_icp_share_the_weights_of_their_alphas(self, rng, monkeypatch):
        g = random_graph(15, 0.25, rng)
        calls = []
        compute = diffusion.compute_influence_weights
        monkeypatch.setattr(diffusion, "compute_influence_weights", lambda g, *a: calls.append(a) or compute(g, *a))
        for model, alpha1 in (("ltp", 0.3), ("icp", 0.3), ("icp", 0.6), ("ltp", 0.6)):
            influence_spread(g, DiffusionConfig(model=model, alpha1=alpha1, alpha2=1 - alpha1, num_runs=3), [0])
        assert calls == [(0.3, 0.7), (0.6, 0.4)]

    def test_missing_beta_is_computed(self, rng):
        g = random_graph(15, 0.25, rng)
        config = DiffusionConfig(model="sir", num_runs=7)
        influence_spread(g, config, [0])
        kept_for, ready, _first = g.diffusion["sir"]
        assert kept_for is config and config.sir_beta is None and "weights" not in g.diffusion
        assert ready == dataclasses.replace(config, sir_beta=critical_sir_beta(g))

    @pytest.mark.parametrize("model", MODELS)
    def test_empty_graph_is_named_error(self, model):
        g = build_graph(0, [], [], np.zeros((0, 2)))
        with pytest.raises(EmptyGraphError, match="no nodes"):
            influence_spread(g, DiffusionConfig(model=model), [])
        assert g.diffusion == {}

    def test_config_is_frozen_and_hashable(self):
        config = DiffusionConfig(model="icp", num_runs=5)
        assert hash(config) == hash(DiffusionConfig(model="icp", num_runs=5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.num_runs = 6
        assert [f.name for f in dataclasses.fields(DiffusionConfig)] == [
            "model", "alpha1", "alpha2", "sir_beta", "sir_gamma", "max_steps", "num_runs", "rng_seed"
        ]


class TestInfluenceSpread:
    def test_all_seeds_spread_one(self, rng):
        g = random_graph(12, 0.2, rng)
        for model in ("ltp", "icp", "sir"):
            config = DiffusionConfig(model=model, num_runs=20, rng_seed=0)
            r = influence_spread(g, config, range(12))
            assert r.mean_spread == 1.0
            assert r.std_spread == 0.0

    @pytest.mark.parametrize("seeds", [[2.7], [True], ["1"], np.array([1.0])], ids=["float", "bool", "str", "array"])
    def test_non_integer_seeds_rejected(self, seeds):
        # each used to simulate a node: 2.7 as node 2, True and '1' as node 1
        g = build_graph(3, [0, 1], [1, 2], np.ones((3, 1)))
        with pytest.raises(ValueError, match="^seed ids must be integers, not "):
            influence_spread(g, DiffusionConfig(model="icp", num_runs=2), seeds)

    @pytest.mark.parametrize(
        "seeds, bad", [([1, -1], -1), (np.array([3, 0]), 3), ({7}, 7)], ids=["negative", "past", "set"]
    )
    def test_out_of_range_seed_named(self, seeds, bad):
        # graph.node_mask, which induced_subgraph shares, names the first bad id
        g = build_graph(3, [0, 1], [1, 2], np.ones((3, 1)))
        with pytest.raises(ValueError, match=re.escape(f"seed id {bad} outside [0, 3)")):
            influence_spread(g, DiffusionConfig(model="icp", num_runs=2), seeds)

    @pytest.mark.parametrize(
        "seeds", [[], [np.uint8(1)], np.array([1], dtype=np.int32)], ids=["empty", "uint8", "int32"]
    )
    def test_integer_seeds_of_any_width(self, seeds):
        g = build_graph(3, [0, 1], [1, 2], np.ones((3, 1)))
        counts = influence_spread(g, DiffusionConfig(model="icp", num_runs=2), seeds).activated_counts
        assert counts.tolist() == ([0, 0] if len(seeds) == 0 else [2, 2])  # node 1 and its one out-neighbour

    def test_empty_seeds_zero(self, rng):
        g = random_graph(12, 0.2, rng)
        config = DiffusionConfig(model="ltp", num_runs=20, rng_seed=0)
        # all-theta > 0 holds almost surely with the uniform draw
        assert influence_spread(g, config, []).mean_spread == 0.0

    def test_deterministic_across_worker_counts(self, rng, monkeypatch):
        g = random_graph(25, 0.15, rng)
        config = DiffusionConfig(model="icp", num_runs=64, rng_seed=7)
        results = []
        # PINE_THREADS is read by nothing in pine; a chunk budget of 1 runs each run in a chunk of its own
        for threads, budget in (("1", diffusion.CHUNK_BUDGET), ("8", 1)):
            monkeypatch.setenv("PINE_THREADS", threads)
            monkeypatch.setattr(diffusion, "CHUNK_BUDGET", budget)
            g.diffusion.clear()  # draw the runs again, not the kept first chunk
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
        scrambled_features = np.random.default_rng(99).normal(size=g.features.shape)
        other = build_graph(g.num_nodes, g.edge_src, g.edge_dst, scrambled_features)
        assert np.array_equal(other.edge_src, g.edge_src) and np.array_equal(other.edge_dst, g.edge_dst)
        scrambled = influence_spread(other, config, [0, 1])
        # identical weights => identical RNG stream => identical outcomes
        assert np.array_equal(base.activated_counts, scrambled.activated_counts)


# (model, gamma, max_steps) of the reference comparisons: SIR with a step cap
# searches the live edges by their transmission steps
REFERENCE_CASES = [("ltp", 1.0, None), ("icp", 1.0, None), ("sir", 1.0, None), ("sir", 0.4, None)] + [
    ("sir", gamma, cap) for gamma in (1.0, 0.4, 0.0) for cap in (1, 3)
]


class TestLiveEdgeEngine:
    """influence_spread samples live-edge graphs; the step-wise simulators
    are its reference."""

    @pytest.mark.parametrize(
        "model, gamma, max_steps",
        REFERENCE_CASES,
        ids=[f"{m}-{g}" + ("" if cap is None else f"-cap{cap}") for m, g, cap in REFERENCE_CASES],
    )
    def test_matches_reference_simulators(self, model, gamma, max_steps):
        rng = np.random.default_rng(77)
        runs, seeds, beta = 3000, [0, 1], 0.3
        for trial in range(3):
            g = random_graph(10, 0.25, rng)
            w = compute_influence_weights(g)
            config = DiffusionConfig(
                model=model, sir_beta=beta, sir_gamma=gamma, max_steps=max_steps, num_runs=runs, rng_seed=trial
            )
            engine = influence_spread(g, config, seeds).activated_counts
            reference = np.empty(runs)
            for r in range(runs):
                stream = np.random.default_rng([1000 + trial, r])
                if model == "ltp":
                    mask = run_lt_plus(g, w, seeds, stream)
                elif model == "icp":
                    mask = run_ic_plus(g, w, seeds, stream)
                else:
                    mask = run_sir(g, beta, gamma, seeds, stream, max_steps)
                reference[r] = mask.sum()
            pooled = np.sqrt(engine.var(ddof=1) / runs + reference.var(ddof=1) / runs)
            assert abs(engine.mean() - reference.mean()) <= 4 * pooled + 1e-12

    @pytest.mark.parametrize(
        "model, max_steps", [("ltp", None), ("icp", None), ("sir", None), ("sir", 2)], ids=MODELS + ("sir-capped",)
    )
    def test_counts_independent_of_chunk_size(self, model, max_steps, rng, monkeypatch):
        g = random_graph(20, 0.15, rng)
        config = DiffusionConfig(model=model, sir_gamma=0.5, max_steps=max_steps, num_runs=40, rng_seed=3)
        default = influence_spread(g, config, [0, 1]).activated_counts
        for runs_per_chunk in (1, 3):  # 3 does not divide num_runs
            monkeypatch.setattr(diffusion, "CHUNK_BUDGET", runs_per_chunk * (g.num_nodes + g.num_edges))
            g.diffusion.clear()  # draw the runs again, not the kept first chunk
            assert np.array_equal(influence_spread(g, config, [0, 1]).activated_counts, default)

    def test_sir_without_recovery_reaches_all_descendants(self):
        # gamma = 0: an infected node retries every step, so each out-edge fires
        g = build_graph(5, [0, 1, 2, 4], [1, 2, 3, 0], np.ones((5, 1)))
        config = DiffusionConfig(model="sir", sir_beta=0.2, sir_gamma=0.0, num_runs=20)
        assert influence_spread(g, config, [1]).activated_counts.tolist() == [3] * 20
        capped = dataclasses.replace(config, max_steps=10**6)  # past every sum of transmission steps
        assert influence_spread(g, capped, [1]).activated_counts.tolist() == [3] * 20

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_cap_past_every_path_gives_uncapped_counts(self, rng, gamma):
        # a cap draws the same live edges; with gamma = 1 each fires at step 1, so N steps
        # cover every path, and longer periods need a cap past the largest sum of steps
        g = random_graph(20, 0.2, rng)
        config = DiffusionConfig(model="sir", sir_beta=0.4, sir_gamma=gamma, num_runs=30, rng_seed=8)
        uncapped = influence_spread(g, config, [0, 5]).activated_counts
        cap = g.num_nodes if gamma == 1.0 else 10**6
        capped = influence_spread(g, dataclasses.replace(config, max_steps=cap), [0, 5]).activated_counts
        assert np.array_equal(capped, uncapped)
        one_step = influence_spread(g, dataclasses.replace(config, max_steps=1), [0, 5]).activated_counts
        assert np.all(one_step <= uncapped) and np.any(one_step < uncapped)

    @pytest.mark.parametrize("model", ["ltp", "icp", "sir"])
    def test_empty_graph_is_named_error(self, model):
        g = build_graph(0, [], [], np.zeros((0, 2)))
        with pytest.raises(EmptyGraphError, match="no nodes"):
            influence_spread(g, DiffusionConfig(model=model, num_runs=3), [])
        with pytest.raises(EmptyGraphError, match="no nodes"):
            critical_sir_beta(g)


class TestKeptRuns:
    """A graph keeps each model's first chunk of stacked runs; every call
    that searches it gives the counts of a call that draws them itself."""

    @staticmethod
    def zero_spread(g, model):
        """Replace the runs ``g`` keeps for ``model`` by runs with no live
        edge: a call that searches them reaches the seeds alone."""
        config, ready, (indptr, indices, steps) = g.diffusion[model]
        no_steps = None if steps is None else steps[:0]
        g.diffusion[model] = (config, ready, (np.zeros_like(indptr), indices[:0], no_steps))

    @pytest.mark.parametrize(
        "model, max_steps", [("ltp", None), ("icp", None), ("sir", None), ("sir", 2)], ids=MODELS + ("sir-capped",)
    )
    def test_counts_equal_fresh_calls_across_chunks(self, model, max_steps, rng, monkeypatch):
        g = random_graph(20, 0.15, rng)
        config = DiffusionConfig(model=model, sir_gamma=0.5, max_steps=max_steps, num_runs=40, rng_seed=3)
        expected = {}
        for seeds in ((0,), (4, 9, 13)):
            g.diffusion.clear()
            expected[seeds] = influence_spread(g, config, seeds).activated_counts
        for sampled_runs, used_runs in ((3, 3), (3, 7), (40, 3), (7, 40)):
            monkeypatch.setattr(diffusion, "CHUNK_BUDGET", sampled_runs * (g.num_nodes + g.num_edges))
            g.diffusion.clear()
            influence_spread(g, config, [])
            kept = g.diffusion[model]
            assert kept[2][0].size == sampled_runs * g.num_nodes + 1
            monkeypatch.setattr(diffusion, "CHUNK_BUDGET", used_runs * (g.num_nodes + g.num_edges))
            for seeds, counts in expected.items():
                assert np.array_equal(influence_spread(g, config, seeds).activated_counts, counts)
            assert g.diffusion[model] is kept

    def test_kept_runs_are_searched(self, rng):
        g = random_graph(20, 0.3, rng)
        config = DiffusionConfig(model="icp", num_runs=30, rng_seed=2)
        influence_spread(g, config, [0])
        self.zero_spread(g, "icp")
        assert influence_spread(g, config, [0, 5]).activated_counts.tolist() == [2] * 30

    @pytest.mark.parametrize(
        "change",
        [
            {"model": "ltp"},
            {"model": "sir"},
            {"num_runs": 31},
            {"num_runs": 29},
            {"rng_seed": 3},
            {"alpha1": 0.3, "alpha2": 0.7},
            "another graph of the same size",
        ],
        ids=["ltp", "sir", "more-runs", "fewer-runs", "rng-seed", "alphas", "graph"],
    )
    def test_stale_runs_are_not_used(self, rng, change):
        g = random_graph(20, 0.3, rng)
        config = DiffusionConfig(model="icp", num_runs=30, rng_seed=2)
        influence_spread(g, config, [0])
        self.zero_spread(g, "icp")
        if change == "another graph of the same size":
            graph = build_graph(g.num_nodes, g.edge_dst, g.edge_src, g.features)
            assert (graph.num_nodes, graph.num_edges) == (g.num_nodes, g.num_edges)
        else:
            config, graph = dataclasses.replace(config, **change), g
        counts = influence_spread(graph, config, [0, 5]).activated_counts
        graph.diffusion.clear()
        fresh = influence_spread(graph, config, [0, 5]).activated_counts
        assert np.array_equal(counts, fresh)
        assert fresh.max() > 2  # the zeroed runs would reach the seeds alone

    def test_capped_sir_keeps_each_edge_step(self, rng):
        g = random_graph(20, 0.2, rng)
        config = DiffusionConfig(model="sir", sir_beta=0.4, sir_gamma=0.5, max_steps=3, num_runs=30, rng_seed=8)
        expected = influence_spread(g, config, [0, 5]).activated_counts
        _config, _ready, (_indptr, indices, steps) = g.diffusion["sir"]
        assert steps.size == indices.size and np.all(steps >= 1)  # a transmission step per live edge
        assert np.array_equal(influence_spread(g, config, [0, 5]).activated_counts, expected)
        self.zero_spread(g, "sir")
        assert influence_spread(g, config, [0, 5]).activated_counts.tolist() == [2] * 30


class TestCappedSir:
    """Exact values of SIR with a step cap through ``influence_spread``."""

    @pytest.mark.parametrize("beta, cap", [(0.6, 0), (0.0, 3)], ids=["no-steps", "beta-zero"])
    def test_seeds_alone(self, rng, beta, cap):
        g = random_graph(15, 0.3, rng)
        config = DiffusionConfig(model="sir", sir_beta=beta, sir_gamma=0.5, max_steps=cap, num_runs=25)
        assert influence_spread(g, config, [0, 3, 7]).activated_counts.tolist() == [3] * 25

    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_path_advances_one_hop_per_step(self, gamma):
        g = build_graph(5, [0, 1, 2, 3], [1, 2, 3, 4], np.ones((5, 1)))
        config = DiffusionConfig(model="sir", sir_beta=1.0, sir_gamma=gamma, max_steps=2, num_runs=20)
        assert influence_spread(g, config, [0]).activated_counts.tolist() == [3] * 20

    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_two_hop_path_closed_form(self, gamma, cap):
        # gamma = 1: node 1 is infected at step 1 with probability beta, node 2 at step 2
        # with beta^2 (TestSir.test_single_edge_closed_form, one hop further).  gamma = 0:
        # node 1 by step c with 1 - (1 - beta)^c, node 2 when two Geom(beta) steps sum to at most c
        g = build_graph(3, [0, 1], [1, 2], np.ones((3, 1)))
        beta, runs = 0.3, 20_000
        config = DiffusionConfig(model="sir", sir_beta=beta, sir_gamma=gamma, max_steps=cap, num_runs=runs, rng_seed=4)
        counts = influence_spread(g, config, [0]).activated_counts
        if gamma == 1.0:
            expected = 1 + beta + (beta**2 if cap >= 2 else 0.0)
        else:
            two_hops = sum((k - 1) * beta**2 * (1 - beta) ** (k - 2) for k in range(2, cap + 1))
            expected = 1 + (1 - (1 - beta) ** cap) + two_hops
        assert abs(counts.mean() - expected) <= 3 * counts.std(ddof=1) / np.sqrt(runs)

    def test_edgeless_graph(self):
        g = build_graph(4, [], [], np.ones((4, 1)))
        config = DiffusionConfig(model="sir", sir_gamma=0.0, max_steps=3, num_runs=5)
        assert influence_spread(g, config, [0, 2]).activated_counts.tolist() == [2] * 5
