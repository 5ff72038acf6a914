import numpy as np
import pytest

from pine import gat
from pine.graph import build_graph

from conftest import random_graph


def randomized_model(feature_dim, hidden, layers, rng, dtype=np.float64):
    model = gat.init_model(feature_dim, hidden, layers, rng, dtype=dtype)
    for layer in model.layers:
        layer.attn_src[:] = rng.normal(size=hidden).astype(dtype) * 0.5
        layer.attn_dst[:] = rng.normal(size=hidden).astype(dtype) * 0.5
    return model


def dense_forward_oracle(model, g):
    """Dense-matrix recomputation of the layer stack, loops over nodes."""
    n = g.num_nodes
    h = g.features.astype(np.float64)
    in_lists = [list(map(int, g.in_neighbors(i))) for i in range(n)]
    for li, layer in enumerate(model.layers):
        u = layer.proj.astype(np.float64)
        s = layer.attn_src.astype(np.float64)
        t = layer.attn_dst.astype(np.float64)
        proj = h @ u.T
        out = np.zeros((n, u.shape[0]))
        for i in range(n):
            if not in_lists[i]:
                continue
            w = []
            for j in in_lists[i]:
                raw = proj[j] @ s + proj[i] @ t
                w.append(raw if raw > 0 else model.leaky_slope * raw)
            w = np.array(w)
            alpha = np.exp(w - w.max())
            alpha /= alpha.sum()
            for a, j in zip(alpha, in_lists[i]):
                out[i] += a * proj[j]
        h = np.where(out > 0, out, np.expm1(np.minimum(out, 0))) if li < model.num_layers - 1 else out
    return h


class TestForward:
    def test_single_edge_attention_one(self, rng):
        g = build_graph(2, [0], [1], rng.normal(size=(2, 3)))
        model = randomized_model(3, 4, 1, rng)
        h = gat.forward(model, g)
        assert np.allclose(model.attention[0], [1.0])
        expected = model.layers[0].proj @ g.features[0]
        assert np.allclose(h[1], expected, atol=1e-12)

    def test_zero_in_degree_zero_embedding(self, rng):
        g = build_graph(3, [0, 1], [2, 2], rng.normal(size=(3, 3)))
        model = randomized_model(3, 4, 1, rng)
        h = gat.forward(model, g)
        assert np.allclose(h[0], 0.0)
        assert np.allclose(h[1], 0.0)

    def test_matches_dense_reference(self, rng):
        g = random_graph(5, 0.5, rng, d=3)
        model = randomized_model(3, 4, 2, rng)
        h = gat.forward(model, g)
        assert np.allclose(h, dense_forward_oracle(model, g), atol=1e-6)

    def test_attention_rows_sum_to_one(self, rng):
        g = random_graph(20, 0.2, rng, d=4)
        model = randomized_model(4, 6, 2, rng)
        gat.forward(model, g)
        for alpha in model.attention:
            sums = np.bincount(g.edge_dst, weights=alpha, minlength=g.num_nodes)
            assert np.allclose(sums[g.in_degrees() > 0], 1.0, atol=1e-6)

    def test_zero_attention_params_give_uniform(self, rng):
        g = random_graph(10, 0.3, rng, d=4)
        model = gat.init_model(4, 5, 1, rng, dtype=np.float64)  # s = t = 0
        gat.forward(model, g)
        expected = 1.0 / g.in_degrees()[g.edge_dst]
        assert np.allclose(model.attention[0], expected)

    def test_dimension_mismatch(self, rng):
        g = random_graph(5, 0.4, rng, d=3)
        model = gat.init_model(7, 4, 1, rng)
        with pytest.raises(ValueError, match="width"):
            gat.forward(model, g)

    def test_permutation_equivariance(self, rng):
        g = random_graph(10, 0.3, rng, d=4)
        model = randomized_model(4, 5, 2, rng)
        perm = rng.permutation(10)
        g2 = build_graph(10, perm[g.edge_src], perm[g.edge_dst], g.features[np.argsort(perm)])
        h1 = gat.forward(model, g)
        a1 = {(int(perm[s]), int(perm[d])): v for s, d, v in zip(g.edge_src, g.edge_dst, model.attention[0])}
        h2 = gat.forward(model, g2)
        a2 = {(int(s), int(d)): v for s, d, v in zip(g2.edge_src, g2.edge_dst, model.attention[0])}
        assert np.allclose(h1, h2[perm], atol=1e-10)
        for key, v in a1.items():
            assert a2[key] == pytest.approx(v, abs=1e-10)


class TestPredictEdge:
    def test_orthogonal_embeddings_half(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert gat.predict_edge(h, 0, 1) == pytest.approx(0.5)

    def test_ln3_norm_gives_three_quarters(self):
        v = np.sqrt(np.log(3.0) / 2.0)
        h = np.array([[v, v], [v, v]])
        assert gat.predict_edge(h, 0, 1) == pytest.approx(0.75)

    def test_matches_direct_evaluation(self, rng):
        h = rng.normal(size=(6, 4))
        for j, i in [(0, 1), (2, 5), (4, 3)]:
            direct = 1.0 / (1.0 + np.exp(-np.dot(h[j], h[i])))
            assert gat.predict_edge(h, j, i) == pytest.approx(direct)


class TestLossAndGradients:
    def test_forced_half_probability_loss(self, rng):
        # orthogonal final embeddings => z = 0.5 => loss = ln 2
        g = build_graph(2, [0], [1], np.eye(2))
        model = gat.init_model(2, 2, 1, rng, dtype=np.float64)
        model.layers[0].proj[:] = 0.0  # all embeddings zero => dot = 0
        loss, _ = gat.loss_and_gradients(model, g, np.array([[0, 1]]), np.zeros((0, 2)))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_gradients_match_finite_differences(self, layers, rng):
        g = random_graph(12, 0.25, rng, d=5)
        model = randomized_model(5, 4, layers, rng)
        pos = np.stack([g.edge_src[:5], g.edge_dst[:5]], axis=1)
        neg = np.array([[0, 7], [3, 9], [11, 2], [6, 1], [8, 4]])
        _, grads = gat.loss_and_gradients(model, g, pos, neg)
        eps = 1e-6
        for li, layer in enumerate(model.layers):
            for arr, analytic in zip([layer.proj, layer.attn_src, layer.attn_dst], grads[li]):
                flat = arr.reshape(-1)
                targets = np.random.default_rng(li).choice(flat.size, size=min(6, flat.size), replace=False)
                for idx in targets:
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    lp, _ = gat.loss_and_gradients(model, g, pos, neg)
                    flat[idx] = orig - eps
                    lm, _ = gat.loss_and_gradients(model, g, pos, neg)
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * eps)
                    an = analytic.reshape(-1)[idx]
                    assert abs(fd - an) / max(1e-8, abs(fd) + abs(an)) < 1e-4


class TestSerialization:
    def test_roundtrip(self, tmp_path, rng):
        model = randomized_model(6, 4, 2, rng, dtype=np.float32)
        path = tmp_path / "m.bin"
        gat.save_model(model, path)
        loaded = gat.load_model(path)
        assert loaded.num_layers == 2
        for a, b in zip(model.layers, loaded.layers):
            assert np.allclose(a.proj, b.proj)
            assert np.allclose(a.attn_src, b.attn_src)
            assert np.allclose(a.attn_dst, b.attn_dst)
        assert loaded.attention is None  # cache never persisted

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTPIN\x00\x00")
        with pytest.raises(ValueError, match="magic"):
            gat.load_model(path)


def bag_of_words_graph(rng, n=14, d=30):
    """Sparse nonnegative integer features with one all-zero row; node 3
    keeps its out-edges but has no in-edges."""
    g = random_graph(n, 0.25, rng, d=1)
    feats = (rng.random((n, d)) < 0.15) * rng.integers(1, 4, (n, d))
    feats[0] = 0
    keep = g.edge_dst != 3
    return build_graph(n, g.edge_src[keep], g.edge_dst[keep], feats.astype(np.float64))


def assert_gradients_match_finite_differences(model, g, pos, neg, grads, eps=1e-6):
    for li, layer in enumerate(model.layers):
        for arr, analytic in zip([layer.proj, layer.attn_src, layer.attn_dst], grads[li]):
            assert analytic.shape == arr.shape
            flat = arr.reshape(-1)
            targets = np.random.default_rng(li).choice(flat.size, size=min(8, flat.size), replace=False)
            for idx in targets:
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _ = gat.loss_and_gradients(model, g, pos, neg)
                flat[idx] = orig - eps
                lm, _ = gat.loss_and_gradients(model, g, pos, neg)
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                an = analytic.reshape(-1)[idx]
                assert abs(fd - an) <= 1e-4 * max(1e-8, abs(fd) + abs(an)) + 1e-9


class TestSparseInput:
    """The CSR layer-0 input and the CSR attention matrix against the dense
    node-loop oracle and finite differences."""

    def test_input_matrix_is_csr_of_features(self, rng):
        g = bag_of_words_graph(rng)
        x = gat.input_matrix(g.features, np.float32)
        assert x.format == "csr" and x.dtype == np.float32
        assert np.array_equal(x.toarray(), g.features.astype(np.float32))

    @pytest.mark.parametrize("layers", [1, 2])
    def test_forward_matches_dense_oracle(self, layers, rng):
        g = bag_of_words_graph(rng)
        assert g.in_degrees()[3] == 0 and g.out_degrees()[3] > 0
        model = randomized_model(g.feature_dim, 5, layers, rng)
        h = gat.forward(model, g)
        assert np.allclose(h, dense_forward_oracle(model, g), atol=1e-9)
        assert np.allclose(h[3], 0.0)
        h_given = gat.forward(model, g, x=gat.input_matrix(g.features, np.float64))
        assert np.array_equal(h, h_given)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_gradients_match_finite_differences(self, layers, rng):
        g = bag_of_words_graph(rng)
        model = randomized_model(g.feature_dim, 4, layers, rng)
        pos = np.stack([g.edge_src[:6], g.edge_dst[:6]], axis=1)
        neg = np.array([[0, 7], [3, 9], [11, 2], [6, 1], [8, 4], [5, 3]])
        loss, grads = gat.loss_and_gradients(model, g, pos, neg)
        assert_gradients_match_finite_differences(model, g, pos, neg, grads)
        taped = gat.forward(model, g, keep_tape=True, x=gat.input_matrix(g.features, np.float64))
        loss_given, grads_given = gat.loss_and_gradients(model, g, pos, neg, taped_forward=taped)
        assert loss_given == loss
        for triple, triple_given in zip(grads, grads_given):
            for a, b in zip(triple, triple_given):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_edgeless_graph(self, layers, rng):
        feats = (rng.random((6, 9)) < 0.3).astype(np.float64)
        g = build_graph(6, [], [], feats)
        model = randomized_model(9, 4, layers, rng)
        h = gat.forward(model, g)
        assert h.shape == (6, 4) and np.all(h == 0.0)
        assert all(alpha.size == 0 for alpha in model.attention)
        pos, neg = np.array([[0, 1], [2, 3]]), np.array([[4, 5]])
        loss, grads = gat.loss_and_gradients(model, g, pos, neg)
        assert loss == pytest.approx(3 * np.log(2.0))
        for triple in grads:
            for a in triple:
                assert np.all(a == 0.0)

    def test_gradients_are_c_contiguous(self, rng):
        g = bag_of_words_graph(rng)
        model = randomized_model(g.feature_dim, 4, 2, rng)
        _, grads = gat.loss_and_gradients(model, g, np.array([[0, 1]]), np.array([[2, 5]]))
        for layer, triple in zip(model.layers, grads):
            assert triple[0].shape == layer.proj.shape and triple[0].flags["C_CONTIGUOUS"]


class TestLoadModelChecks:
    def saved(self, tmp_path, rng):
        path = tmp_path / "m.bin"
        gat.save_model(randomized_model(6, 4, 2, rng, dtype=np.float32), path)
        return path

    @pytest.mark.parametrize("cut", [1, 10, 4 * 4 + 1])
    def test_truncated_blob_names_path_and_layer(self, cut, tmp_path, rng):
        path = self.saved(tmp_path, rng)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=r"m\.bin: layer 2 is truncated"):
            gat.load_model(path)

    def test_truncated_header(self, tmp_path, rng):
        path = self.saved(tmp_path, rng)
        for size in (10, 14 + 16):
            path.write_bytes(path.read_bytes()[:size])
            with pytest.raises(ValueError, match=r"m\.bin: truncated"):
                gat.load_model(path)

    def test_trailing_bytes(self, tmp_path, rng):
        path = self.saved(tmp_path, rng)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match=r"m\.bin: 1 trailing bytes after layer 2"):
            gat.load_model(path)
