import dataclasses
import hashlib
import struct
import types

import numpy as np
import pytest

from pine import gat
from pine.graph import build_graph, induced_subgraph
from pine.pine_score import score_graph
from pine.split import split_edges
from pine.train import TrainConfig, train

from conftest import in_neighbors, random_graph


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
    in_lists = [list(map(int, in_neighbors(g, i))) for i in range(n)]
    for li, layer in enumerate(model.layers):
        u = layer.proj.astype(np.float64)
        s = layer.attn_src.astype(np.float64)
        t = layer.attn_dst.astype(np.float64)
        proj = h @ u
        out = np.zeros((n, u.shape[1]))
        for i in range(n):
            if not in_lists[i]:
                continue
            w = []
            for j in in_lists[i]:
                raw = proj[j] @ s + proj[i] @ t
                w.append(raw if raw > 0 else gat.LEAKY_SLOPE * raw)
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
        h, tapes = gat.forward(model, g)
        assert np.allclose(tapes[0].alpha, [1.0])
        expected = g.features[0] @ model.layers[0].proj
        assert np.allclose(h[1], expected, atol=1e-12)

    def test_zero_in_degree_zero_embedding(self, rng):
        g = build_graph(3, [0, 1], [2, 2], rng.normal(size=(3, 3)))
        model = randomized_model(3, 4, 1, rng)
        h, _tapes = gat.forward(model, g)
        assert np.allclose(h[0], 0.0)
        assert np.allclose(h[1], 0.0)

    def test_matches_dense_reference(self, rng):
        g = random_graph(5, 0.5, rng, d=3)
        model = randomized_model(3, 4, 2, rng)
        h, _tapes = gat.forward(model, g)
        assert np.allclose(h, dense_forward_oracle(model, g), atol=1e-6)

    def test_attention_rows_sum_to_one(self, rng):
        g = random_graph(20, 0.2, rng, d=4)
        model = randomized_model(4, 6, 2, rng)
        _h, tapes = gat.forward(model, g)
        for tape in tapes:
            sums = np.bincount(g.edge_dst, weights=tape.alpha, minlength=g.num_nodes)
            assert np.allclose(sums[g.in_degrees() > 0], 1.0, atol=1e-6)

    def test_zero_attention_params_give_uniform(self, rng):
        g = random_graph(10, 0.3, rng, d=4)
        model = gat.init_model(4, 5, 1, rng, dtype=np.float64)  # s = t = 0
        _h, tapes = gat.forward(model, g)
        expected = 1.0 / g.in_degrees()[g.edge_dst]
        assert np.allclose(tapes[0].alpha, expected)

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
        h1, tapes1 = gat.forward(model, g)
        a1 = {(int(perm[s]), int(perm[d])): v for s, d, v in zip(g.edge_src, g.edge_dst, tapes1[0].alpha)}
        h2, tapes2 = gat.forward(model, g2)
        a2 = {(int(s), int(d)): v for s, d, v in zip(g2.edge_src, g2.edge_dst, tapes2[0].alpha)}
        assert np.allclose(h1, h2[perm], atol=1e-10)
        for key, v in a1.items():
            assert a2[key] == pytest.approx(v, abs=1e-10)


def predict_edge(h_out: np.ndarray, j: int, i: int) -> float:
    """Logistic of the dot product of the two final embeddings."""
    return float(gat._sigmoid(np.dot(h_out[j], h_out[i]))[0])


class TestPredictEdge:
    def test_orthogonal_embeddings_half(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert predict_edge(h, 0, 1) == pytest.approx(0.5)

    def test_ln3_norm_gives_three_quarters(self):
        v = np.sqrt(np.log(3.0) / 2.0)
        h = np.array([[v, v], [v, v]])
        assert predict_edge(h, 0, 1) == pytest.approx(0.75)

    def test_matches_direct_evaluation(self, rng):
        h = rng.normal(size=(6, 4))
        for j, i in [(0, 1), (2, 5), (4, 3)]:
            direct = 1.0 / (1.0 + np.exp(-np.dot(h[j], h[i])))
            assert predict_edge(h, j, i) == pytest.approx(direct)


def two_branch_sigmoid(x):
    """Each sign's overflow-free formula on its own mask: the oracle of ``gat._sigmoid``."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_bit_equal_to_two_branch_oracle(self, rng):
        tiny = np.finfo(np.float64).tiny
        edges = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0, 36.0, -36.0, 5e-324, -5e-324, tiny / 2]
        x = np.concatenate([edges] + [rng.normal(scale=scale, size=50_000) for scale in (1, 10, 100, 1000)])
        for values in (x, x.astype(np.float32)):
            got = gat._sigmoid(values)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), two_branch_sigmoid(values).view(np.int64))

    def test_nan_gives_nan(self):
        assert np.isnan(gat._sigmoid([np.nan, 1.0, -np.nan])).tolist() == [True, False, True]


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
        assert [f.name for f in dataclasses.fields(loaded)] == ["layers"]

    def test_roundtrip_keeps_layout_with_unequal_widths(self, tmp_path, rng):
        # d_in = 6 != d_out = 4, so a transpose missing or swapped on either side shows
        g = random_graph(9, 0.3, rng, d=6)
        model = randomized_model(6, 4, 2, rng, dtype=np.float32)
        path = tmp_path / "m.bin"
        gat.save_model(model, path)
        first_blob = np.frombuffer(path.read_bytes(), dtype="<f4", count=4 * 6, offset=14 + 2 * 16)
        assert np.array_equal(first_blob.reshape(4, 6), model.layers[0].proj.T)  # rows are output units
        loaded = gat.load_model(path)
        for a, b in zip(model.layers, loaded.layers):
            assert b.proj.shape == (b.d_in, b.d_out) and b.proj.flags["C_CONTIGUOUS"]
            assert np.array_equal(a.proj, b.proj)
        assert [(l.d_in, l.d_out) for l in loaded.layers] == [(6, 4), (4, 4)]
        assert np.array_equal(gat.forward(model, g)[0], gat.forward(loaded, g)[0])

    def test_trained_model_file_bytes_are_pinned(self, tmp_path):
        # Training runs in float64 so the float32 file does not hang on the last
        # bit of the machine's BLAS kernels.  The digest moved once, when each
        # layer's hidden units were split into column blocks: with every
        # pre-activation at 0 the first gradient of attn_dst is zero but for
        # rounding (the softmax ignores a term shared by a node's in-edges), and
        # Adam's first step turns that noise into steps of +-lr whose signs
        # follow the summation order.
        g = random_graph(30, 0.15, np.random.default_rng(5), d=5)
        config = TrainConfig(
            hidden_size=4, num_layers=2, max_epochs=4, patience=4, learning_rate=0.05, rng_seed=2, dtype=np.float64
        )
        model, _log = train(g, split_edges(g, rng_seed=2), config)
        path = tmp_path / "m.bin"
        gat.save_model(model, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "fabf1fc257f15538f09e31a95c1c77f5165af55b59a478a1934bee43822002ec"

    def test_reloaded_model_scores_bit_equal_to_the_saved_one(self, tmp_path, rng):
        # the file holds no LeakyReLU slope: a model that carried one of its own
        # (0.01, say) scored with 0.2 once reloaded, up to 0.002 apart on 30 nodes
        g = random_graph(30, 0.15, rng, d=5)
        model = randomized_model(5, 4, 2, rng, dtype=np.float32)
        path = tmp_path / "m.bin"
        gat.save_model(model, path)
        loaded = gat.load_model(path)
        for layer in range(2):
            pre_act = gat.forward(model, g)[1][layer].pre_act
            assert (pre_act > 0).any() and (pre_act < 0).any()  # so that the slope matters
            assert np.array_equal(score_graph(g, model, layer).values, score_graph(g, loaded, layer).values)

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


def assert_gradients_match_finite_differences(model, g, pos, neg, grads, eps=1e-6, rtol=1e-4, atol=1e-9):
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
                assert abs(fd - an) <= rtol * max(1e-8, abs(fd) + abs(an)) + atol


class TestSparseInput:
    """The CSR layer-0 input and the CSR attention matrix against the dense
    node-loop oracle and finite differences."""

    def test_input_matrix_is_csr_of_features(self, rng):
        g = bag_of_words_graph(rng)
        x = gat.input_matrix(g.features, np.float32)
        assert x.format == "csr" and x.dtype == np.float32
        assert np.array_equal(x.toarray(), g.features.astype(np.float32))

    def test_graph_input_is_built_once_per_features_array(self, rng):
        g = bag_of_words_graph(rng)
        x = gat.graph_input(g, np.float32)
        assert gat.graph_input(g, np.dtype("float32")) is x
        assert x.format == "csr" and x.dtype == np.float32
        assert np.array_equal(x.toarray(), g.features.astype(np.float32))
        assert np.array_equal(gat.graph_input(g, np.float64).toarray(), g.features)
        # one (features, X) pair per dtype and no transpose kept beside it
        assert {k: len(v) for k, v in g.feature_csr.items()} == {np.dtype(np.float32): 2, np.dtype(np.float64): 2}
        assert g.feature_csr[np.dtype(np.float32)][0] is g.features and g.feature_csr[np.dtype(np.float32)][1] is x
        sub = induced_subgraph(g, np.arange(5))  # other features, own inputs
        assert np.array_equal(gat.graph_input(sub, np.float32).toarray(), x.toarray()[:5])
        assert gat.graph_input(g, np.float32) is x
        g.features = g.features + 1.0  # a new features array is read again
        assert np.array_equal(gat.graph_input(g, np.float32).toarray(), g.features.astype(np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("features", ["bag-of-words", "dense"])
    def test_layer0_gradient_through_transpose_view_equals_transposed_csr(self, features, dtype, rng):
        # d_u = X[S].T @ d_proj and X.T @ d_score read the transposes as CSC views; each must add
        # a node's term into a gradient row in the order a CSR copy of the transpose does, so both
        # are bit-equal
        if features == "dense":
            g = random_graph(300, 0.02, rng, d=24)
        else:
            g = bag_of_words_graph(rng, n=300, d=40)
        model = randomized_model(g.feature_dim, 16, 2, rng, dtype=dtype)
        _h, tapes = gat.forward(model, g)
        x, x_src = tapes[0].h_in, tapes[0].h_src
        assert x is gat.graph_input(g, dtype) and x.format == "csr" and x.nnz > 3 * g.feature_dim
        assert x_src is gat.source_input(g, dtype)[3] and x_src.format == "csr" and x_src.nnz > 3 * g.feature_dim
        assert x_src.shape[0] == np.count_nonzero(g.out_degrees())
        assert features == "bag-of-words" or x_src.shape[0] < g.num_nodes  # here some nodes send nothing
        d_out = [rng.normal(size=(g.num_nodes, 8)).astype(dtype) for _block in range(2)]
        grads = gat._backward(model, g, tapes, d_out)
        transposed = dataclasses.replace(
            tapes[0], h_in=types.SimpleNamespace(T=x.T.tocsr()), h_src=types.SimpleNamespace(T=x_src.T.tocsr())
        )
        grads_csr = gat._backward(model, g, [transposed, *tapes[1:]], d_out)
        assert grads[0][0].dtype == dtype and grads[0][0].flags.c_contiguous
        for triple, triple_csr in zip(grads, grads_csr):
            for a, b in zip(triple, triple_csr):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_forward_matches_dense_oracle(self, layers, rng):
        g = bag_of_words_graph(rng)
        assert g.in_degrees()[3] == 0 and g.out_degrees()[3] > 0
        model = randomized_model(g.feature_dim, 5, layers, rng)
        h, _tapes = gat.forward(model, g)
        assert np.allclose(h, dense_forward_oracle(model, g), atol=1e-9)
        assert np.allclose(h[3], 0.0)
        g.feature_csr.clear()
        h_fresh, _tapes = gat.forward(model, g)
        assert np.array_equal(h, h_fresh)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_gradients_match_finite_differences(self, layers, rng):
        g = bag_of_words_graph(rng)
        model = randomized_model(g.feature_dim, 4, layers, rng)
        pos = np.stack([g.edge_src[:6], g.edge_dst[:6]], axis=1)
        neg = np.array([[0, 7], [3, 9], [11, 2], [6, 1], [8, 4], [5, 3]])
        loss, grads = gat.loss_and_gradients(model, g, pos, neg)
        assert_gradients_match_finite_differences(model, g, pos, neg, grads)
        g.feature_csr.clear()
        taped = gat.forward(model, g)
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
        h, tapes = gat.forward(model, g)
        assert h.shape == (6, 4) and np.all(h == 0.0)
        assert all(tape.alpha.size == 0 for tape in tapes)
        pos, neg = np.array([[0, 1], [2, 3]]), np.array([[4, 5]])
        loss, grads = gat.loss_and_gradients(model, g, pos, neg)
        assert loss == pytest.approx(3 * np.log(2.0))
        for triple in grads:
            for a in triple:
                assert np.all(a == 0.0)

    def test_source_input_is_built_once_per_graph_input(self, rng):
        g = bag_of_words_graph(rng)
        x, sources, columns, x_src = gat.source_input(g, np.float32)
        assert x is gat.graph_input(g, np.float32) and gat.source_input(g, np.float32)[3] is x_src
        assert np.array_equal(sources, np.flatnonzero(g.out_degrees()))
        assert np.array_equal(sources[columns], g.edge_src)
        assert x_src.format == "csr" and np.array_equal(x_src.toarray(), x.toarray()[sources])
        assert set(g.feature_csr) == set(g.source_csr) == {np.dtype(np.float32)}  # kept apart from X
        sub = induced_subgraph(g, np.arange(5))  # its own sources
        assert np.array_equal(gat.source_input(sub, np.float32)[1], np.flatnonzero(sub.out_degrees()))
        g.features = g.features + 1.0  # a new X, so new rows of it
        assert np.array_equal(gat.source_input(g, np.float32)[3].toarray(), g.features[sources].astype(np.float32))

    def test_gradients_are_c_contiguous_d_in_by_d_out(self, rng):
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

    @staticmethod
    def write_raw(path, dims):
        """A model file with the given (d_in, d_out) per layer and zero blobs."""
        header = gat.MAGIC_MODEL + struct.pack("<Q", len(dims)) + b"".join(struct.pack("<QQ", *d) for d in dims)
        path.write_bytes(header + bytes(4 * sum(d_in * d_out + 2 * d_out for d_in, d_out in dims)))
        return path

    def test_zero_layers(self, tmp_path):
        path = self.write_raw(tmp_path / "m.bin", [])
        with pytest.raises(ValueError, match=r"m\.bin: layer count is 0"):
            gat.load_model(path)

    @pytest.mark.parametrize("dims, layer", [([(6, 4), (4, 0)], 2), ([(0, 4)], 1), ([(6, 0), (0, 4)], 1)])
    def test_zero_width(self, dims, layer, tmp_path):
        path = self.write_raw(tmp_path / "m.bin", dims)
        with pytest.raises(ValueError, match=rf"m\.bin: layer {layer} has width 0"):
            gat.load_model(path)

    def test_unchained_widths(self, tmp_path):
        path = self.write_raw(tmp_path / "m.bin", [(6, 4), (3, 4), (4, 4)])
        with pytest.raises(ValueError, match=r"m\.bin: layer 2 takes width 3, layer 1 gives 4"):
            gat.load_model(path)
        self.write_raw(path, [(6, 4), (4, 3)])
        assert [(l.d_in, l.d_out) for l in gat.load_model(path).layers] == [(6, 4), (4, 3)]


SOURCE_ROW_GRAPHS = {
    "edgeless": (6, [], []),  # S is empty
    "one-node": (1, [], []),
    "all-sources": (5, [0, 1, 2, 3, 4, 0, 2], [1, 2, 3, 4, 0, 3, 0]),
    # 4..7 hear every node of the cycle 0 -> 1 -> 2 -> 3 -> 0 and send nothing
    "sinks": (8, [0, 1, 2, 3] + [0, 1, 2, 3] * 4, [1, 2, 3, 0] + [4] * 4 + [5] * 4 + [6] * 4 + [7] * 4),
}


class TestSourceRows:
    """Only the nodes with out-edges are projected, in column blocks of the hidden units: graphs where
    the sources are none, all or some of the nodes, hidden sizes of one block (1) and of two blocks (2,
    3 and 4, the last block the narrower one at 3), against the dense node-loop oracle and finite
    differences of a float64 copy."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("hidden, widths", [(1, [1]), (2, [1, 1]), (3, [2, 1]), (4, [2, 2])])
    @pytest.mark.parametrize("shape", list(SOURCE_ROW_GRAPHS))
    def test_forward_and_gradients(self, shape, hidden, widths, layers, dtype, rng):
        if hidden == 1:
            # one hidden unit seldom puts a node's in-edges on both sides of the kink: 5 of seeds 0-59
            # do on every graph here, the fixture's does not, and 12 is the first that does
            rng = np.random.default_rng(12)
        n, src, dst = SOURCE_ROW_GRAPHS[shape]
        g = build_graph(n, src, dst, rng.normal(size=(n, 5)))
        model = randomized_model(5, hidden, layers, rng, dtype=dtype)
        sources = np.flatnonzero(g.out_degrees())
        assert sources.size == {"edgeless": 0, "one-node": 0, "all-sources": n, "sinks": 4}[shape]
        h, tapes = gat.forward(model, g)
        assert h.dtype == dtype and h.shape == (n, hidden) and h.flags.c_contiguous
        for tape in tapes:
            assert [p.shape for p in tape.projected] == [(sources.size, w) for w in widths]
            assert [a.shape for a in tape.aggregated] == [(n, w) for w in widths]
        for tape in tapes[: bool(sources.size) * layers]:
            # a node whose in-edges' pre-activations straddle 0, or the destination term has no gradient
            signs = [np.sign(tape.pre_act[lo:hi]) for lo, hi in zip(g.in_ptr[:-1], g.in_ptr[1:])]
            assert any((s > 0).any() and (s < 0).any() for s in signs)
        tol = {"atol": 1e-9, "rtol": 1e-9} if dtype == np.float64 else {"atol": 1e-5, "rtol": 1e-5}
        assert np.allclose(h, dense_forward_oracle(model, g), **tol)
        rows = np.arange(n)
        pos = np.stack([np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)], axis=1)
        neg = np.stack([rows, rows[::-1]], axis=1)
        _loss, grads = gat.loss_and_gradients(model, g, pos, neg)
        for layer, triple in zip(model.layers, grads):
            assert [a.dtype for a in triple] == [dtype] * 3 and triple[0].shape == layer.proj.shape
            assert all(a.flags.c_contiguous for a in triple)
        model64 = gat.GatModel([dataclasses.replace(
            layer, **{f: getattr(layer, f).astype(np.float64) for f in ("proj", "attn_src", "attn_dst")}
        ) for layer in model.layers])
        if dtype == np.float64:
            assert_gradients_match_finite_differences(model64, g, pos, neg, grads)
        else:
            assert_gradients_match_finite_differences(model64, g, pos, neg, grads, rtol=2e-3, atol=1e-5)
