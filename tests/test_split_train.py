import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pine import gat
from pine.graph import build_graph
from pine.split import SplitError, sample_negatives, split_edges
from pine.train import TrainConfig, roc_auc, train

from conftest import random_graph


def edge_set(pairs):
    return set(map(tuple, np.asarray(pairs).reshape(-1, 2).tolist()))


class TestSplitEdges:
    def test_fraction_arithmetic_m100(self):
        rng = np.random.default_rng(0)
        # build a graph with exactly 100 edges
        g = random_graph(40, 0.07, rng)
        while g.num_edges != 100:
            g = random_graph(40, 0.07, rng)
        split = split_edges(g, rng_seed=1)
        assert len(split.val_pos) == 15
        assert len(split.test_pos) == 15
        assert len(split.supervision_pos) == 21
        assert len(split.message_edges) == 49

    def test_same_seed_identical(self, rng):
        g = random_graph(30, 0.2, rng)
        s1 = split_edges(g, rng_seed=42)
        s2 = split_edges(g, rng_seed=42)
        for a, b in [
            (s1.message_edges, s2.message_edges),
            (s1.supervision_pos, s2.supervision_pos),
            (s1.val_neg, s2.val_neg),
        ]:
            assert np.array_equal(a, b)

    def test_partition_properties(self, rng):
        g = random_graph(60, 0.3, rng)
        assert g.num_edges > 1000
        split = split_edges(g, rng_seed=3)
        msg, sup = edge_set(split.message_edges), edge_set(split.supervision_pos)
        val, test = edge_set(split.val_pos), edge_set(split.test_pos)
        assert msg & sup == set()
        assert (msg | sup) & (val | test) == set()
        all_edges = edge_set(np.stack([g.edge_src, g.edge_dst], axis=1))
        assert msg | sup | val | test == all_edges

    def test_negatives_disjoint_from_edges(self, rng):
        g = random_graph(30, 0.2, rng)
        split = split_edges(g, rng_seed=5)
        all_edges = edge_set(np.stack([g.edge_src, g.edge_dst], axis=1))
        for neg in (split.val_neg, split.test_neg):
            assert edge_set(neg) & all_edges == set()
            assert len(edge_set(neg)) == len(neg)  # no duplicates
            assert len(neg) > 0

    def test_too_small_graph(self):
        g = build_graph(3, [0, 1], [1, 2], np.ones((3, 1)))
        with pytest.raises(SplitError):
            split_edges(g)

    def test_sample_negatives_exhaustion(self):
        # complete bidirected pair: no negatives exist
        g = build_graph(2, [0, 1], [1, 0], np.ones((2, 1)))
        with pytest.raises(SplitError):
            sample_negatives(g, 5, np.random.default_rng(0))

    def test_message_isolation(self, rng):
        # removing supervision edges from the parent graph leaves the
        # message structure (hence any forward pass on it) unchanged
        g = random_graph(25, 0.25, rng)
        split = split_edges(g, rng_seed=6)
        mg = split.message_graph(g)
        kept = edge_set(np.stack([mg.edge_src, mg.edge_dst], axis=1))
        assert kept == edge_set(split.message_edges)
        assert kept & edge_set(split.supervision_pos) == set()


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_constant_scores(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_pairwise_oracle(self, rng):
        scores = rng.normal(size=20)
        scores[3] = scores[11]  # force a tie
        labels = rng.integers(0, 2, 20)
        labels[0], labels[1] = 1, 0
        total, wins = 0, 0.0
        for p in scores[labels == 1]:
            for n in scores[labels == 0]:
                total += 1
                wins += 1.0 if p > n else (0.5 if p == n else 0.0)
        assert roc_auc(scores, labels) == pytest.approx(wins / total)

    def test_needs_both_classes(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [1, 1])


class TestTrain:
    @pytest.fixture()
    def community_graph(self):
        rng = np.random.default_rng(0)
        n = 30
        comm = rng.integers(0, 2, n)
        feats = np.where(comm[:, None] == 0, rng.normal(1, 0.3, (n, 6)), rng.normal(-1, 0.3, (n, 6)))
        src, dst = [], []
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < (0.45 if comm[i] == comm[j] else 0.02):
                    src.append(i)
                    dst.append(j)
        return build_graph(n, np.array(src), np.array(dst), feats)

    def test_loss_decreases_early(self, community_graph):
        # the per-epoch training loss is measured on resampled negatives, so
        # probe progress on one fixed batch instead: it must strictly drop
        # across the first 5 optimizer steps at lr 1e-3
        from pine.train import Adam

        g = community_graph
        config = TrainConfig(learning_rate=1e-3, hidden_size=8, num_layers=1, rng_seed=0)
        split = split_edges(g, rng_seed=0)
        mg = split.message_graph(g)
        rng = np.random.default_rng(0)
        model = gat.init_model(g.feature_dim, 8, 1, rng, dtype=np.float32)
        probe_neg = sample_negatives(g, len(split.supervision_pos), np.random.default_rng(777))
        optimizer = Adam(list(model.parameters()), config)
        probe_losses = []
        for _ in range(6):
            probe, _ = gat.loss_and_gradients(model, mg, split.supervision_pos, probe_neg)
            probe_losses.append(probe)
            neg = sample_negatives(g, len(split.supervision_pos), rng)
            _, grads = gat.loss_and_gradients(model, mg, split.supervision_pos, neg)
            optimizer.step(list(model.parameters()), [a for t in grads for a in t])
        assert all(b < a for a, b in zip(probe_losses, probe_losses[1:]))

    def test_early_stopping_and_best_params(self, community_graph):
        config = TrainConfig(learning_rate=5e-3, hidden_size=8, num_layers=1, max_epochs=200, patience=8, rng_seed=1)
        split = split_edges(community_graph, rng_seed=1)
        model, log = train(community_graph, split, config)
        assert log.stopped_early or len(log.epochs) == 200
        assert log.best_val_auc >= max(e["val_auc"] for e in log.epochs) - 1e-12
        # returned model reproduces the best validation AUC
        from pine.train import evaluate_auc

        mg = split.message_graph(community_graph)
        assert evaluate_auc(model, mg, split.val_pos, split.val_neg) == pytest.approx(log.best_val_auc)

    def test_learns_better_than_chance(self, community_graph):
        config = TrainConfig(learning_rate=5e-3, hidden_size=16, num_layers=1, max_epochs=150, patience=20, rng_seed=2)
        split = split_edges(community_graph, rng_seed=2)
        model, log = train(community_graph, split, config)
        from pine.train import evaluate_auc

        mg = split.message_graph(community_graph)
        assert evaluate_auc(model, mg, split.test_pos, split.test_neg) > 0.6

    def test_determinism(self, community_graph):
        config = TrainConfig(learning_rate=1e-3, hidden_size=8, num_layers=1, max_epochs=10, patience=10, rng_seed=3)
        split = split_edges(community_graph, rng_seed=3)
        m1, log1 = train(community_graph, split, config)
        m2, log2 = train(community_graph, split, config)
        assert [e["loss"] for e in log1.epochs] == [e["loss"] for e in log2.epochs]
        for a, b in zip(m1.layers, m2.layers):
            assert np.array_equal(a.proj, b.proj)


class TestFusedEpoch:
    def test_matches_unfused_sequence(self):
        # train() runs one taped forward per epoch and hands it to the next
        # gradient; the plain sequence forwards inside each call
        from pine.train import Adam, evaluate_auc

        rng = np.random.default_rng(4)
        g = build_graph(
            40, rng.integers(0, 40, 200), rng.integers(0, 40, 200), (rng.random((40, 25)) < 0.2).astype(float)
        )
        config = TrainConfig(learning_rate=5e-3, hidden_size=8, num_layers=2, max_epochs=12, patience=12, rng_seed=9)
        split = split_edges(g, rng_seed=9)
        _model, log = train(g, split, config)

        rng = np.random.default_rng(config.rng_seed)
        model = gat.init_model(g.feature_dim, config.hidden_size, config.num_layers, rng, dtype=config.dtype)
        mg = split.message_graph(g)
        optimizer = Adam(list(model.parameters()), config)
        expected = []
        for epoch in range(config.max_epochs):
            neg = sample_negatives(g, len(split.supervision_pos), rng)
            loss, grads = gat.loss_and_gradients(model, mg, split.supervision_pos, neg)
            optimizer.step(list(model.parameters()), [a for t in grads for a in t])
            expected.append({"epoch": epoch, "loss": loss, "val_auc": evaluate_auc(model, mg, split.val_pos, split.val_neg)})
        assert log.epochs == expected


class TestAdam:
    @staticmethod
    def reference_step(params, grads, m, v, t, c):
        # the update as plain numpy expressions, each temporary allocated, with the module's constants
        from pine.train import ADAM_EPS, BETA1, BETA2

        for p, grad, mi, vi in zip(params, grads, m, v):
            g = grad.astype(p.dtype)
            mi *= BETA1
            mi += (1 - BETA1) * g
            vi *= BETA2
            vi += (1 - BETA2) * g * g
            m_hat = mi / (1 - BETA1**t)
            v_hat = vi / (1 - BETA2**t)
            p -= c.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_bit_equal_to_plain_expressions(self, dtype):
        from pine.train import Adam

        rng = np.random.default_rng(5)
        config = TrainConfig(learning_rate=3e-3)
        shapes = [(17, 9), (9,), (1,)]
        params = [rng.normal(size=s).astype(dtype) for s in shapes]
        expected = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        optimizer = Adam(params, config)
        for t in range(1, 8):
            # float64 gradients, as the backward pass may give, cast to the parameters' dtype
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=s) for s in shapes]
            optimizer.step(params, grads)
            self.reference_step(expected, grads, m, v, t, config)
            for got, want, mi, vi, om, ov in zip(params, expected, m, v, optimizer.m, optimizer.v):
                assert got.dtype == dtype
                assert np.array_equal(got, want) and np.array_equal(om, mi) and np.array_equal(ov, vi)


def pairs_of(arr):
    return list(map(tuple, np.asarray(arr).reshape(-1, 2).tolist()))


class TestSampleNegativesProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 7),
        edge_bits=st.integers(0, 2**49 - 1),
        forbidden_bits=st.integers(0, 2**49 - 1),
        count=st.integers(0, 45),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_contract(self, n, edge_bits, forbidden_bits, count, seed):
        ordered = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = [p for k, p in enumerate(ordered) if edge_bits >> k & 1]
        forbidden = np.array([p for k, p in enumerate(ordered) if forbidden_bits >> k & 1], dtype=np.int64)
        g = build_graph(n, [u for u, _ in edges], [v for _, v in edges], np.ones((n, 1)))
        free = set(ordered) - set(edges) - set(pairs_of(forbidden))
        rng = np.random.default_rng(seed)
        if count > len(free):
            with pytest.raises(SplitError):
                sample_negatives(g, count, rng, forbidden=forbidden)
            return
        out = sample_negatives(g, count, rng, forbidden=forbidden)
        assert out.shape == (count, 2) and out.dtype == np.int64
        got = pairs_of(out)
        assert len(set(got)) == count  # no repeats
        assert set(got) <= free  # no edges, self-pairs or forbidden pairs


def oracle_sample_negatives(g, count, rng, forbidden=None):
    """``sample_negatives`` as it was before it sorted each batch's keys:
    ``np.unique`` keeps the first draw of each key, and membership is
    searched with the keys in draw order."""

    def pair_keys(src, dst, n):
        return np.asarray(dst, dtype=np.int64) * n + np.asarray(src, dtype=np.int64)

    def isin_sorted(sorted_keys, keys):
        if not sorted_keys.size:
            return np.zeros(keys.size, dtype=bool)
        pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
        return sorted_keys[pos] == keys

    n = g.num_nodes
    blocked = pair_keys(g.edge_src, g.edge_dst, n)
    if forbidden is not None and len(forbidden):
        forbidden = np.asarray(forbidden).reshape(-1, 2)
        blocked = np.sort(np.concatenate([blocked, pair_keys(forbidden[:, 0], forbidden[:, 1], n)]))
    budget = 100 * max(count, 1) + 1000
    accepted = np.empty(0, dtype=np.int64)
    drawn = 0
    while accepted.size < count:
        if drawn >= budget or n == 0:
            raise SplitError(f"could not sample {count} negatives from a graph with N={n}, M={g.num_edges}")
        need = count - accepted.size
        free = max(0.1, 1.0 - (blocked.size + n + accepted.size) / float(n * n))
        batch = min(budget - drawn, int(1.1 * need / free) + 64)
        drawn += batch
        uv = rng.integers(0, n, size=(batch, 2))
        keys = pair_keys(uv[:, 0], uv[:, 1], n)
        keys = keys[(uv[:, 0] != uv[:, 1]) & ~isin_sorted(blocked, keys) & ~isin_sorted(np.sort(accepted), keys)]
        _unique, first = np.unique(keys, return_index=True)
        accepted = np.concatenate([accepted, keys[np.sort(first)][:need]])
    dst, src = np.divmod(accepted, max(n, 1))
    return np.stack([src, dst], axis=1)


def sampled(sampler, g, count, seed, forbidden=None):
    """The sampler's output for a fresh generator of ``seed``, or its error type and message."""
    try:
        return sampler(g, count, np.random.default_rng(seed), forbidden=forbidden)
    except SplitError as exc:
        return type(exc), str(exc)


class CountingRng:
    """A generator that counts its ``integers`` calls: one per batch of candidate pairs."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def int64_digest(arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a, dtype="<i8").tobytes() for a in arrays)).hexdigest()


class TestSampleNegativesOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 9),
        edge_bits=st.integers(0, 2**72 - 1),
        forbidden_bits=st.integers(0, 2**72 - 1),
        use_forbidden=st.booleans(),
        count=st.integers(0, 80),
        slack=st.one_of(st.none(), st.integers(-2, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_output_or_error_as_oracle(self, n, edge_bits, forbidden_bits, use_forbidden, count, slack, seed):
        ordered = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = [p for k, p in enumerate(ordered) if edge_bits >> k & 1]
        blocked = [p for k, p in enumerate(ordered) if forbidden_bits >> k & 1] if use_forbidden else []
        forbidden = np.array(blocked, dtype=np.int64).reshape(-1, 2) if use_forbidden else None
        g = build_graph(n, [u for u, _ in edges], [v for _, v in edges], np.ones((n, 1)))
        if slack is not None:  # close to the free-pair count, so that the loop takes several batches
            count = max(0, len(set(ordered) - set(edges) - set(blocked)) - slack)
        expected = sampled(oracle_sample_negatives, g, count, seed, forbidden)
        got = sampled(sample_negatives, g, count, seed, forbidden)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_several_batches_match_oracle(self):
        # every free pair is asked for, so late batches mostly draw pairs already accepted
        g = random_graph(9, 0.4, np.random.default_rng(2))
        count = 9 * 8 - g.num_edges
        rngs = CountingRng(4), CountingRng(4)
        got = sample_negatives(g, count, rngs[0])
        assert np.array_equal(got, oracle_sample_negatives(g, count, rngs[1]))
        assert rngs[0].calls == rngs[1].calls > 2

    def test_graph_shapes_match_oracle(self):
        g = random_graph(300, 0.05, np.random.default_rng(11))
        for seed in range(3):
            val_neg = oracle_sample_negatives(g, 668, np.random.default_rng(seed + 10))
            for count, forbidden in ((668, None), (668, val_neg), (935, None)):
                expected = sampled(oracle_sample_negatives, g, count, seed, forbidden)
                assert np.array_equal(sampled(sample_negatives, g, count, seed, forbidden), expected)

    def test_large_batches_of_repeated_keys_match_oracle(self):
        # batches of thousands of draws over a few thousand free pairs: most keys repeat in a batch,
        # and the first draw of each, not the one the unstable sort puts first, is the one kept
        g = random_graph(60, 0.3, np.random.default_rng(6))
        free = 60 * 59 - g.num_edges
        forbidden = oracle_sample_negatives(g, free // 4, np.random.default_rng(7))
        for seed in range(3):
            for count, given_forbidden in ((free - 5, None), (free - free // 4 - 3, forbidden)):
                rngs = CountingRng(seed), CountingRng(seed)
                got = sample_negatives(g, count, rngs[0], forbidden=given_forbidden)
                assert np.array_equal(got, oracle_sample_negatives(g, count, rngs[1], forbidden=given_forbidden))
                assert rngs[0].calls == rngs[1].calls > 1

    def test_split_and_training_draws_are_pinned(self):
        # the values written before the sampler sorted its batches
        g = random_graph(300, 0.05, np.random.default_rng(11))
        s = split_edges(g, rng_seed=3)
        fields = [s.message_edges, s.supervision_pos, s.val_pos, s.test_pos, s.val_neg, s.test_neg]
        assert [len(f) for f in fields] == [2183, 935, 668, 668, 668, 668]
        assert int64_digest(fields) == "9c18ba8dc94a57e5825565fc7e76d69fa7034a43a2dd2bc04ae006e3477604b6"
        rng = np.random.default_rng(5)  # as train() draws one batch per epoch
        draws = [sample_negatives(g, len(s.supervision_pos), rng) for _ in range(3)]
        assert int64_digest(draws) == "54c12a68c87404451e03a2f8eb258fcddec130b9689acc915d512e8ae060bce4"
