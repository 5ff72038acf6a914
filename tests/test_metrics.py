import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pine.metrics import average_ranks, ndcg_at_k, precision_at_k, spearman


class TestNdcg:
    def test_identical_rankings(self):
        truth = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        assert ndcg_at_k(truth, truth, 5) == pytest.approx(1.0)

    def test_k1_best_first(self):
        assert ndcg_at_k([9.0, 1.0, 2.0], [7.0, 0.0, 3.0], 1) == pytest.approx(1.0)

    def test_worked_example(self):
        # truth [3,2,1]; prediction puts node 1 first, node 0 second, node 2 third
        truth = [3.0, 2.0, 1.0]
        predicted = [2.0, 3.0, 1.0]
        dcg = 2 / np.log2(2) + 3 / np.log2(3) + 1 / np.log2(4)
        idcg = 3 / np.log2(2) + 2 / np.log2(3) + 1 / np.log2(4)
        value = ndcg_at_k(predicted, truth, 3)
        assert value == pytest.approx(dcg / idcg, abs=1e-12)
        assert value == pytest.approx(0.9225, abs=5e-5)

    def test_all_zero_truth_errors(self):
        with pytest.raises(ValueError, match="all zero"):
            ndcg_at_k([1.0, 2.0], [0.0, 0.0], 2)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.normal(size=15)
            t = np.abs(rng.normal(size=15))
            v = ndcg_at_k(p, t, 5)
            assert 0.0 <= v <= 1.0 + 1e-12


class TestSpearman:
    def test_identical_orderings(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_classic_rank_formula(self):
        # sum of squared rank differences = 2 => 1 - 6*2/(4*15) = 0.8
        assert spearman([1, 2, 4, 3], [1, 2, 3, 4]) == pytest.approx(0.8)

    def test_constant_input_nan(self):
        with pytest.warns(UserWarning):
            assert np.isnan(spearman([1.0, 1.0, 1.0], [1, 2, 3]))

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=12), rng.normal(size=12)
        assert spearman(a, b) == pytest.approx(spearman(b, a))

    def test_ties_use_average_ranks(self):
        # matches the textbook Pearson-of-fractional-ranks value
        a = np.array([1.0, 1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0, 3.0, 4.0])
        ra = np.array([1.5, 1.5, 3.0, 4.0])
        rb = np.array([1.0, 2.0, 3.0, 4.0])
        expected = np.corrcoef(ra, rb)[0, 1]
        assert spearman(a, b) == pytest.approx(expected)


class TestAverageRanks:
    @given(st.lists(st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_counting_definition(self, values):
        # rank of x = #(values < x) + (#(values == x) + 1) / 2, exact halves
        x = np.array(values, dtype=np.float64)
        expected = np.array([np.sum(x < v) + (np.sum(x == v) + 1) / 2.0 for v in x])
        assert np.array_equal(average_ranks(x), expected)


class TestPrecisionAtK:
    def test_identical_vectors(self):
        v = [3.0, 1.0, 2.0]
        assert precision_at_k(v, v, 2) == 1.0

    def test_disjoint_top_k(self):
        assert precision_at_k([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], 1) == 0.0

    def test_matches_set_intersection_oracle(self):
        rng = np.random.default_rng(2)
        p, t = rng.normal(size=50), rng.normal(size=50)
        k = 10
        top_p = set(np.argsort(-p, kind="stable")[:k].tolist())
        top_t = set(np.argsort(-t, kind="stable")[:k].tolist())
        assert precision_at_k(p, t, k) == pytest.approx(len(top_p & top_t) / k)

    def test_value_granularity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = precision_at_k(rng.normal(size=20), rng.normal(size=20), 4)
            assert v in {0.0, 0.25, 0.5, 0.75, 1.0}

    def test_boundary_ties_deterministic(self):
        # nodes 1 and 2 tie at the k boundary; both sides must cut by id
        p = [5.0, 1.0, 1.0, 0.0]
        t = [5.0, 1.0, 1.0, 0.0]
        assert precision_at_k(p, t, 2) == 1.0


@st.composite
def score_pair(draw):
    n = draw(st.integers(3, 20))
    # round so that distinct scores stay distinct after an affine transform
    # (values like 1e-300 would otherwise collapse into the constant term)
    p = draw(st.lists(st.floats(-100, 100, allow_nan=False).map(lambda x: round(x, 3)), min_size=n, max_size=n))
    t = draw(st.lists(st.floats(0.1, 100, allow_nan=False), min_size=n, max_size=n))
    return np.array(p), np.array(t)


class TestMonotoneInvariance:
    @given(score_pair())
    @settings(max_examples=40, deadline=None)
    def test_all_metrics_invariant_under_monotone_transform(self, pair):
        p, t = pair
        transformed = 3.0 * p + 7.0  # strictly monotone
        k = max(1, p.size // 3)
        assert ndcg_at_k(p, t, k) == pytest.approx(ndcg_at_k(transformed, t, k))
        assert precision_at_k(p, t, k) == pytest.approx(precision_at_k(transformed, t, k))
        s1, s2 = spearman(p, t), spearman(transformed, t)
        if np.isnan(s1):
            assert np.isnan(s2)
        else:
            assert s1 == pytest.approx(s2)

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=15, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_spearman_self_correlation(self, xs):
        assert spearman(xs, xs) == pytest.approx(1.0)
