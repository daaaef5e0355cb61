import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_blobs, random_dataset
from cdsproxy import numerics as nm
from cdsproxy.core import Dataset
from cdsproxy.errors import BadK
from cdsproxy.neighbors import DEFAULT_K, KnnClassifier, Metric, distance, fit_knn


def dist_oracle(metric, a, b, cov=None):
    if metric is Metric.EUCLIDEAN:
        return math.sqrt(sum((u - v) ** 2 for u, v in zip(a, b)))
    if metric is Metric.CITYBLOCK:
        return sum(abs(u - v) for u, v in zip(a, b))
    diff = np.asarray(a) - np.asarray(b)
    return math.sqrt(diff @ np.linalg.solve(cov, diff))


def knn_oracle(train_x, train_y, n_classes, k, metric, query, cov=None):
    dists = [dist_oracle(metric, query, row, cov) for row in train_x]
    order = sorted(range(len(train_x)), key=lambda t: (dists[t], t))
    votes = [0] * n_classes
    for t in order[:k]:
        votes[train_y[t]] += 1
    return votes.index(max(votes))


class TestDistance:
    def test_formulas_match_oracle(self):
        rng = np.random.default_rng(0)
        cov_rows = rng.normal(size=(40, 3))
        cov = np.cov(cov_rows, rowvar=False)
        cov = cov + 1e-8 * np.trace(cov) / 3 * np.eye(3)
        chol = nm.cholesky_spd(cov)
        for _ in range(50):
            a, b = rng.normal(size=3), rng.normal(size=3)
            for metric in (Metric.EUCLIDEAN, Metric.CITYBLOCK):
                assert distance(metric, a, b) == pytest.approx(
                    dist_oracle(metric, a, b), rel=1e-12)
            assert distance(Metric.MAHALANOBIS, a, b, chol) == pytest.approx(
                dist_oracle(Metric.MAHALANOBIS, a, b, cov), rel=1e-10)

    def test_metric_axioms_spotcheck(self):
        rng = np.random.default_rng(1)
        for metric in (Metric.EUCLIDEAN, Metric.CITYBLOCK):
            for _ in range(20):
                a, b, c = rng.normal(size=(3, 4))
                dab = distance(metric, a, b)
                assert dab >= 0
                assert dab == pytest.approx(distance(metric, b, a), rel=1e-12)
                assert distance(metric, a, c) <= dab + distance(metric, b, c) + 1e-12


class TestKnnAgainstOracle:
    @pytest.mark.parametrize("metric", list(Metric))
    def test_all_odd_k(self, metric):
        rng = np.random.default_rng(7)
        train = make_blobs(rng.normal(size=(3, 4)) * 2.0, 9, scale=1.0, seed=3)
        cov = None
        if metric is Metric.MAHALANOBIS:
            cov = nm.add_ridge(nm.sample_mean_covariance(train.x).matrix)
        queries = rng.normal(size=(20, 4)) * 2.0
        for k in range(1, train.n + 1, 2):
            model = fit_knn(train, k=k, metric=metric, standardize=False)
            got = model.classify_batch(queries)
            want = [knn_oracle(train.x, train.y, 3, k, metric, q, cov)
                    for q in queries]
            assert np.array_equal(got, np.array(want))

    def test_standardized_euclidean_matches_oracle_on_scaled_rows(self):
        train = make_blobs([[0.0, 0.0], [3.0, 1.0]], 11, scale=0.8, seed=5)
        model = fit_knn(train, k=5, metric=Metric.EUCLIDEAN)
        mu = train.x.mean(axis=0)
        sd = train.x.std(axis=0, ddof=1)
        queries = np.random.default_rng(6).normal(size=(15, 2)) * 2.0
        zs_train = (train.x - mu) / sd
        for q in queries:
            want = knn_oracle(zs_train, train.y, 2, 5, Metric.EUCLIDEAN, (q - mu) / sd)
            assert model.classify(q) == want


class TestTieRules:
    def test_distance_tie_prefers_lower_training_index(self):
        train = Dataset(x=np.array([[0.0], [0.0], [5.0]]), y=np.array([1, 0, 0]),
                        class_names=("a", "b"), feature_names=("f",))
        model = fit_knn(train, k=1, standardize=False)
        # both index 0 (class b) and index 1 (class a) sit at distance zero
        assert model.classify(np.array([0.0])) == 1

    def test_vote_tie_prefers_lower_class_index(self):
        train = Dataset(x=np.array([[0.0], [1.0], [2.0]]), y=np.array([2, 1, 0]),
                        class_names=("a", "b", "c"), feature_names=("f",))
        model = fit_knn(train, k=3, standardize=False)
        scores = model.scores(np.array([1.0]))
        assert np.array_equal(scores, [1.0, 1.0, 1.0])
        assert model.classify(np.array([1.0])) == 0

    def test_k_equals_n_returns_majority(self):
        train = Dataset(x=np.arange(7, dtype=float)[:, None],
                        y=np.array([0, 0, 0, 0, 1, 1, 1]),
                        class_names=("a", "b"), feature_names=("f",))
        model = fit_knn(train, k=7, standardize=False)
        for q in (-100.0, 0.0, 100.0):
            assert model.classify(np.array([q])) == 0


class TestValidationAndPolicy:
    def test_default_k(self):
        train = make_blobs([[0.0], [4.0]], 10, scale=0.3, seed=1)
        assert fit_knn(train).k == DEFAULT_K == 9

    def test_even_k_rejected(self):
        train = make_blobs([[0.0], [4.0]], 6, scale=0.3, seed=2)
        with pytest.raises(BadK):
            fit_knn(train, k=4)

    def test_k_out_of_range(self):
        train = make_blobs([[0.0], [4.0]], 3, scale=0.3, seed=3)
        with pytest.raises(BadK):
            fit_knn(train, k=0)
        with pytest.raises(BadK):
            fit_knn(train, k=train.n + 1)

    def test_standardization_policy_defaults(self):
        train = make_blobs([[0.0, 0.0], [2.0, 2.0]], 8, scale=0.4, seed=4)
        assert fit_knn(train, metric=Metric.EUCLIDEAN).standardizer is not None
        assert fit_knn(train, metric=Metric.CITYBLOCK).standardizer is not None
        assert fit_knn(train, metric=Metric.MAHALANOBIS).standardizer is None

    def test_standardized_knn_ignores_feature_rescaling(self):
        train = make_blobs([[0.0, 0.0], [2.0, 1.0]], 12, scale=0.5, seed=8)
        scaled = Dataset(x=train.x * np.array([1000.0, 0.01]), y=train.y,
                         class_names=train.class_names,
                         feature_names=train.feature_names)
        a = fit_knn(train, k=5)
        b = fit_knn(scaled, k=5)
        queries = np.random.default_rng(9).normal(size=(25, 2))
        assert np.array_equal(a.classify_batch(queries),
                              b.classify_batch(queries * np.array([1000.0, 0.01])))

    def test_mahalanobis_invariant_under_uniform_scaling(self):
        train = make_blobs([[0.0, 0.0], [2.0, 1.0]], 12, scale=0.5, seed=10)
        scaled = Dataset(x=train.x * 37.0, y=train.y,
                         class_names=train.class_names,
                         feature_names=train.feature_names)
        a = fit_knn(train, k=3, metric=Metric.MAHALANOBIS)
        b = fit_knn(scaled, k=3, metric=Metric.MAHALANOBIS)
        queries = np.random.default_rng(11).normal(size=(25, 2)) * 2
        assert np.array_equal(a.classify_batch(queries),
                              b.classify_batch(queries * 37.0))


class TestBlockedScoring:
    @pytest.mark.parametrize("metric", list(Metric))
    def test_block_size_does_not_change_scores(self, metric, monkeypatch):
        # 600 x 4 rows take 19 KB per query, so the default budget splits
        # the 41 queries into 3 blocks
        train = random_dataset(600, 4, 3, seed=12)
        queries = np.random.default_rng(13).normal(size=(41, 4))
        model = fit_knn(train, k=7, metric=metric)
        default = model.scores_batch(queries)
        monkeypatch.setattr(nm, "BLOCK_BYTES", 1)
        one_per_block = model.scores_batch(queries)
        monkeypatch.setattr(nm, "BLOCK_BYTES", 1 << 40)
        one_block = model.scores_batch(queries)
        assert np.array_equal(default, one_block)
        assert np.array_equal(one_per_block, one_block)

    def test_empty_query_batch(self):
        model = fit_knn(random_dataset(20, 3, 2, seed=14), k=3)
        assert model.scores_batch(np.empty((0, 3))).shape == (0, 2)

    def test_predict_memory_stays_bounded(self):
        # one whole-batch (queries x rows x d) tensor would take 288 MB
        train = random_dataset(4500, 16, 5, seed=15)
        queries = np.random.default_rng(16).normal(size=(500, 16))
        model = fit_knn(train, metric=Metric.MAHALANOBIS)
        tracemalloc.start()
        try:
            model.scores_batch(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestExactTiesThroughPartition:
    """Integer-grid rows give exactly equal distances at the k-th rank."""

    @staticmethod
    def votes(train_x, train_y, n_classes, k, metric, query, prefer_lower=True):
        diff = query - train_x
        dists = (np.abs(diff).sum(axis=1) if metric is Metric.CITYBLOCK
                 else np.sqrt((diff * diff).sum(axis=1)))
        index = np.arange(len(dists))
        order = np.lexsort((index if prefer_lower else -index, dists))[:k]
        return np.bincount(train_y[order], minlength=n_classes)

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.CITYBLOCK])
    def test_matches_stable_argsort_for_every_odd_k(self, metric):
        rng = np.random.default_rng(17)
        grid = np.array([(a, b) for a in range(-2, 3) for b in range(-2, 3)], dtype=float)
        train = Dataset(x=grid[rng.permutation(len(grid))], y=np.arange(25) % 3,
                        class_names=("a", "b", "c"), feature_names=("f", "g"))
        queries = np.array([(a, b) for a in np.arange(-3.0, 3.5, 0.5)
                            for b in np.arange(-3.0, 3.5, 0.5)])
        decided_by_index = 0
        for k in range(1, train.n + 1, 2):  # k == n included
            got = fit_knn(train, k=k, metric=metric, standardize=False).scores_batch(queries)
            for q, row in zip(queries, got):
                want = self.votes(train.x, train.y, 3, k, metric, q)
                assert np.array_equal(row, want)
                flipped = self.votes(train.x, train.y, 3, k, metric, q, prefer_lower=False)
                decided_by_index += int(np.argmax(want) != np.argmax(flipped))
        assert decided_by_index > 0
