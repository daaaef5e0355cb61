import math
import tracemalloc

import numpy as np
import pytest

import loop_reference as ref
from conftest import identical_rows, make_blobs, random_dataset
from cdsproxy import numerics as nm
from cdsproxy.core import Dataset
from cdsproxy.errors import BadConfig, NotPositiveDefinite
from cdsproxy.neighbors import DEFAULT_K, KnnClassifier, Metric, fit_knn


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


class TestKnnAgainstOracle:
    @pytest.mark.parametrize("metric", list(Metric))
    def test_all_odd_k(self, metric):
        rng = np.random.default_rng(7)
        train = make_blobs(rng.normal(size=(3, 4)) * 2.0, 9, scale=1.0, seed=3)
        cov = None
        if metric is Metric.MAHALANOBIS:
            cov = nm.add_ridge(nm.sample_mean_covariance(train.x)[1])
        queries = rng.normal(size=(20, 4)) * 2.0
        for k in range(1, train.n + 1, 2):
            model = fit_knn(train, k=k, metric=metric)
            # Euclidean and city-block compare standardised rows
            scale = model.standardizer.apply if model.standardizer else np.asarray
            got = model.classify_batch(queries)
            want = [knn_oracle(scale(train.x), train.y, 3, k, metric, q, cov)
                    for q in scale(queries)]
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
            assert model.classify_batch(q[None])[0] == want


class TestTieRules:
    def test_distance_tie_prefers_lower_training_index(self):
        train = Dataset(x=np.array([[0.0], [0.0], [5.0]]), y=np.array([1, 0, 0]),
                        class_names=("a", "b"), feature_names=("f",))
        model = fit_knn(train, k=1)
        # both index 0 (class b) and index 1 (class a) sit at distance zero
        assert model.classify_batch(np.array([[0.0]]))[0] == 1

    def test_vote_tie_prefers_lower_class_index(self):
        train = Dataset(x=np.array([[0.0], [1.0], [2.0]]), y=np.array([2, 1, 0]),
                        class_names=("a", "b", "c"), feature_names=("f",))
        model = fit_knn(train, k=3)
        scores = model.scores_batch(np.array([[1.0]]))[0]
        assert np.array_equal(scores, [1.0, 1.0, 1.0])
        assert model.classify_batch(np.array([[1.0]]))[0] == 0

    def test_k_equals_n_returns_majority(self):
        train = Dataset(x=np.arange(7, dtype=float)[:, None],
                        y=np.array([0, 0, 0, 0, 1, 1, 1]),
                        class_names=("a", "b"), feature_names=("f",))
        model = fit_knn(train, k=7)
        for q in (-100.0, 0.0, 100.0):
            assert model.classify_batch(np.array([[q]]))[0] == 0


class TestValidationAndPolicy:
    def test_default_k(self):
        train = make_blobs([[0.0], [4.0]], 10, scale=0.3, seed=1)
        assert fit_knn(train).k == DEFAULT_K == 9

    def test_even_k_rejected(self):
        train = make_blobs([[0.0], [4.0]], 6, scale=0.3, seed=2)
        with pytest.raises(BadConfig, match="k must be odd to avoid vote ties, got 4"):
            fit_knn(train, k=4)

    def test_k_out_of_range(self):
        train = make_blobs([[0.0], [4.0]], 3, scale=0.3, seed=3)
        with pytest.raises(BadConfig, match="k must be a positive integer, got 0"):
            fit_knn(train, k=0)
        with pytest.raises(BadConfig, match=r"k=7 outside 1\.\.6"):
            fit_knn(train, k=train.n + 1)

    def test_zero_mahalanobis_covariance_rejected(self):
        with pytest.raises(NotPositiveDefinite, match="training covariance not invertible"):
            fit_knn(identical_rows(), metric=Metric.MAHALANOBIS)

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


class TestAgainstRowMajorAscendingSum:
    """The feature-major distances against the (queries x training rows x d)
    difference summed over its last axis in ascending feature order, on
    2,400 training rows (300 KB at 16 features, more than one block) that
    come in identical pairs with different labels: every odd rank is tied
    with the next, so every k-th neighbour is decided by index."""

    @staticmethod
    def paired(seed, d=16):
        rng = np.random.default_rng(seed)
        x = np.repeat(rng.normal(size=(1200, d)), 2, axis=0)
        y = np.tile([0, 1], 1200)
        order = rng.permutation(len(x))
        return Dataset(x=x[order], y=y[order], class_names=("a", "b"),
                       feature_names=tuple(f"f{i}" for i in range(d)))

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 15, 16, 40])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_distances_equal_bit_for_bit(self, metric, d):
        model = fit_knn(self.paired(seed=30, d=d), metric=metric)
        assert model.x_train.shape == (d, 2400) and model.x_train.flags.c_contiguous
        q = model._query_matrix(np.random.default_rng(31).normal(size=(7, d)))
        got = model._distances(q)
        assert got.shape == (7, 2400)
        assert got.tobytes() == ref.knn_distances(model, q).tobytes()

    @pytest.mark.parametrize("d", [7, 16, 40])
    def test_order_shows_in_the_rounding(self, d):
        # the sums in descending feature order differ on some pairs, so the
        # test above would catch a sum in another order
        model = fit_knn(self.paired(seed=30, d=d), metric=Metric.CITYBLOCK)
        q = model._query_matrix(np.random.default_rng(31).normal(size=(7, d)))
        terms = np.abs(q.T[:, :, None] - model.x_train[:, None, :])
        descending = terms[-1].copy()
        for layer in terms[-2::-1]:
            descending += layer
        assert np.any(descending != model._distances(q))

    @pytest.mark.parametrize("d", range(1, 41))
    def test_ascending_sum_of_terms_spread_over_decades(self, d):
        # signed features spread over 16 decades, so that the order of the
        # additions shows in the rounded sums
        rng = np.random.default_rng(d)
        x = rng.normal(size=(407, d)) * 10.0 ** rng.uniform(-8, 8, size=(407, d))
        train = Dataset(x=x[7:], y=np.arange(400) % 2, class_names=("a", "b"),
                        feature_names=tuple(f"f{i}" for i in range(d)))
        model = fit_knn(train, metric=Metric.CITYBLOCK)
        q = model._query_matrix(x[:7])
        got = model._distances(q)
        assert got.tobytes() == ref.knn_distances(model, q).tobytes()
        if d > 2:
            terms = np.abs(q.T[:, :, None] - model.x_train[:, None, :])
            descending = terms[-1].copy()
            for layer in terms[-2::-1]:
                descending += layer
            assert np.any(descending != got)

    @pytest.mark.parametrize("block_bytes", [1, nm.BLOCK_BYTES, 1 << 40])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_scores_equal_bit_for_bit(self, metric, block_bytes, monkeypatch):
        train = self.paired(seed=30)
        queries = np.random.default_rng(31).normal(size=(25, 16))
        queries[:5] = train.x[:5]
        monkeypatch.setattr(nm, "BLOCK_BYTES", block_bytes)
        for k in (1, 3, 9, 31):
            model = fit_knn(train, k=k, metric=metric)
            assert np.array_equal(model.scores_batch(queries),
                                  ref.knn_scores_batch(model, queries))


def elementwise_distances(metric, train_x, query):
    diff = query - train_x
    return (np.abs(diff).sum(axis=1) if metric is Metric.CITYBLOCK
            else np.sqrt((diff * diff).sum(axis=1)))


class TestExactTiesThroughPartition:
    """Scores against the elementwise distances in a stable order, on rows
    with exact distance ties at the k-th rank (an integer grid, duplicate
    rows) and on rows whose screen cancels most of its digits."""

    @staticmethod
    def votes(train_x, train_y, n_classes, k, metric, query, prefer_lower=True):
        dists = elementwise_distances(metric, train_x, query)
        index = np.arange(len(dists))
        order = np.lexsort((index if prefer_lower else -index, dists))[:k]
        return np.bincount(train_y[order], minlength=n_classes)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_matches_stable_argsort_for_every_odd_k(self, metric):
        rng = np.random.default_rng(17)
        grid = np.array([(a, b) for a in range(-2, 3) for b in range(-2, 3)], dtype=float)
        train = Dataset(x=grid[rng.permutation(len(grid))], y=np.arange(25) % 3,
                        class_names=("a", "b", "c"), feature_names=("f", "g"))
        queries = np.array([(a, b) for a in np.arange(-3.0, 3.5, 0.5)
                            for b in np.arange(-3.0, 3.5, 0.5)])
        # both columns hold -2..2 five times each and are uncorrelated, so the
        # standardised or whitened grid is the integer grid times one scale
        # and keeps its exact distance ties
        model = fit_knn(train, k=1, metric=metric)
        zs_train, zs_queries = model.x_train.T, model._query_matrix(queries)
        decided_by_index = 0
        for k in range(1, train.n + 1, 2):  # k == n included
            got = fit_knn(train, k=k, metric=metric).scores_batch(queries)
            for q, row in zip(zs_queries, got):
                want = self.votes(zs_train, train.y, 3, k, metric, q)
                assert np.array_equal(row, want)
                flipped = self.votes(zs_train, train.y, 3, k, metric, q, prefer_lower=False)
                decided_by_index += int(np.argmax(want) != np.argmax(flipped))
        assert decided_by_index > 0

    def check_every_odd_k(self, train, queries, metric):
        model = fit_knn(train, k=1, metric=metric)
        zs_train, zs_queries = model.x_train.T, model._query_matrix(queries)
        for k in range(1, train.n + 1, 2):
            got = fit_knn(train, k=k, metric=metric).scores_batch(queries)
            want = np.array([self.votes(zs_train, train.y, train.n_classes, k, metric, q)
                             for q in zs_queries])
            assert np.array_equal(got, want)

    def test_large_common_offset(self):
        # whitened rows near 1e6 L^-1 1: G = |q|^2 + |s|^2 - 2 q.s cancels
        # about twelve of its sixteen digits
        train = random_dataset(60, 3, 3, seed=18)
        train = Dataset(x=train.x + 1e6, y=train.y, class_names=train.class_names,
                        feature_names=train.feature_names)
        queries = np.random.default_rng(19).normal(size=(40, 3)) + 1e6
        self.check_every_odd_k(train, queries, Metric.MAHALANOBIS)

    @staticmethod
    def duplicated(seed):
        # 15 distinct rows, each three times with three labels, shuffled
        rng = np.random.default_rng(seed)
        x = np.repeat(rng.normal(size=(15, 3)), 3, axis=0)
        order = rng.permutation(len(x))
        return Dataset(x=x[order], y=(np.arange(45) % 3)[order],
                       class_names=("a", "b", "c"), feature_names=("f", "g", "h"))

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.MAHALANOBIS])
    def test_duplicate_rows_at_the_kth_rank(self, metric):
        train = self.duplicated(seed=20)
        queries = np.random.default_rng(21).normal(size=(30, 3))
        self.check_every_odd_k(train, queries, metric)


def count_elementwise_rows(monkeypatch):
    """Record every query row that KnnClassifier._distances receives."""
    seen = []
    original = KnnClassifier._distances

    def counting(self, q):
        seen.append(q.copy())
        return original(self, q)

    monkeypatch.setattr(KnnClassifier, "_distances", counting)
    return seen


class TestScreen:
    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.MAHALANOBIS])
    def test_generic_rows_never_take_the_elementwise_path(self, metric, monkeypatch):
        train = random_dataset(600, 4, 3, seed=12)
        queries = np.random.default_rng(13).normal(size=(200, 4))
        seen = count_elementwise_rows(monkeypatch)
        for k in (1, 7, 31):
            fit_knn(train, k=k, metric=metric).scores_batch(queries)
        assert seen == []

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.MAHALANOBIS])
    def test_duplicates_tied_at_the_kth_rank_take_it(self, metric, monkeypatch):
        train = TestExactTiesThroughPartition.duplicated(seed=20)
        queries = np.random.default_rng(21).normal(size=(30, 3))
        seen = count_elementwise_rows(monkeypatch)
        n_tied = 0
        for k in range(1, train.n, 2):
            model = fit_knn(train, k=k, metric=metric)
            zs_queries = model._query_matrix(queries)
            ranked = np.sort([elementwise_distances(metric, model.x_train.T, q)
                              for q in zs_queries], axis=1)
            tied = np.flatnonzero(ranked[:, k - 1] == ranked[:, k])
            seen.clear()
            model.scores_batch(queries)
            assert np.array_equal(np.array(seen).reshape(-1, 3), zs_queries[tied])
            n_tied += tied.size
        assert n_tied > 0
