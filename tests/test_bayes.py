import math
import tracemalloc

import numpy as np
import pytest

import loop_reference as ref
from conftest import identical_rows, make_blobs, random_dataset
from cdsproxy import numerics as nm
from cdsproxy.bayes import (
    DEFAULT_BANDWIDTH,
    LOG_DENSITY_FLOOR,
    KernelKind,
    QdaClassifier,
    _density_scale,
    _kernel_terms,
    fit_lda,
    fit_nb,
    fit_qda,
)
from cdsproxy.core import Dataset
from cdsproxy.errors import BadConfig, EmptyClass, NotPositiveDefinite, TooFewSamples

KERNELS = list(KernelKind)


def lda_log_priors(model, train):
    """LDA keeps its log priors only as the last term of its offsets,
    -mu_j'V^-1 mu_j / 2 + log pi_j, with mu_j the training class means."""
    means = np.stack([train.x[train.y == j].mean(axis=0) for j in range(train.n_classes)])
    return model.offsets + 0.5 * (model.weights * means).sum(axis=1)


@pytest.mark.parametrize("fitter", [fit_lda, fit_qda, fit_nb])
def test_priors_are_training_class_frequencies(fitter):
    train = make_blobs([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], 12, scale=0.6, seed=5)
    skewed = train.subset(np.arange(train.n) % 12 >= np.repeat([0, 3, 7], 12))
    counts = np.bincount(skewed.y, minlength=3)
    assert counts.tolist() == [12, 9, 5]
    model = fitter(skewed)
    log_priors = (lda_log_priors(model, skewed) if fitter is fit_lda
                  else model.log_priors)
    assert np.allclose(log_priors, np.log(counts / skewed.n), rtol=0, atol=1e-14)


def ridged_covariance(rows):
    """The ridged full sample covariance the discriminant fits factor."""
    return nm.add_ridge(nm.sample_mean_covariance(rows)[1])


def ridged(matrix):
    d = matrix.shape[0]
    return matrix + 1e-8 * np.trace(matrix) / d * np.eye(d)


def lda_scores_oracle(train, x):
    """Direct formula with numpy.linalg, pooled covariance of all rows."""
    n_classes = train.n_classes
    counts = np.bincount(train.y, minlength=n_classes)
    pi = counts / counts.sum()
    vinv = np.linalg.inv(ridged(np.cov(train.x, rowvar=False)))
    out = np.empty(n_classes)
    for j in range(n_classes):
        mu = train.x[train.y == j].mean(axis=0)
        out[j] = x @ vinv @ mu - 0.5 * mu @ vinv @ mu + math.log(pi[j])
    return out


def qda_scores_oracle(train, x, mode="full"):
    n_classes = train.n_classes
    counts = np.bincount(train.y, minlength=n_classes)
    pi = counts / counts.sum()
    out = np.empty(n_classes)
    for j in range(n_classes):
        rows = train.x[train.y == j]
        mu = rows.mean(axis=0)
        cov = np.cov(rows, rowvar=False)
        if mode == "diagonal":
            cov = np.diag(np.diag(np.atleast_2d(cov)))
        cov = ridged(np.atleast_2d(cov))
        sign, logdet = np.linalg.slogdet(cov)
        diff = x - mu
        out[j] = (-0.5 * (logdet + diff @ np.linalg.inv(cov) @ diff)
                  + math.log(pi[j]))
    return out


def kde_oracle(samples, kind, b, x):
    def k(u):
        if kind is KernelKind.NORMAL:
            return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        if kind is KernelKind.TRIANGULAR:
            return max(0.0, 1.0 - abs(u))
        return 0.75 * max(0.0, 1.0 - u * u) if abs(u) <= 1 else 0.0
    dens = sum(k((x - xi) / b) for xi in samples) / (len(samples) * b)
    return max(math.log(dens) if dens > 0 else -math.inf, LOG_DENSITY_FLOOR)


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-12)


class TestLda:
    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            train = make_blobs(rng.normal(size=(3, 4)) * 3, 12, scale=1.0, seed=trial)
            model = fit_lda(train)
            for _ in range(5):
                x = rng.normal(size=4) * 2
                got = model.scores_batch(x[None])[0]
                assert rel_err(got, lda_scores_oracle(train, x)).max() < 1e-8

    def test_symmetric_boundary_and_tie(self):
        x0 = np.array([-1.5, -0.5, -1.5, -0.5, -1.5, -0.5])
        x1 = -x0
        train = Dataset(x=np.concatenate([x0, x1])[:, None],
                        y=np.repeat([0, 1], 6), class_names=("a", "b"),
                        feature_names=("f",))
        model = fit_lda(train)
        assert model.classify_batch(np.array([[-0.1]]))[0] == 0
        assert model.classify_batch(np.array([[0.1]]))[0] == 1
        # exactly on the boundary the scores tie; MAP picks the lower index
        s = model.scores_batch(np.array([[0.0]]))[0]
        assert s[0] == s[1]
        assert model.classify_batch(np.array([[0.0]]))[0] == 0

    def test_prior_shift_moves_boundary(self):
        # 18 points near -1, 2 points near +1: the boundary moves toward the
        # rare class by V * log(9) / (mu_1 - mu_0)
        rng = np.random.default_rng(3)
        x0 = -1.0 + np.concatenate([rng.uniform(-0.5, 0.5, 17), [0.0]])
        x0 = x0 - (x0.mean() + 1.0)   # force sample mean exactly -1
        x1 = np.array([0.5, 1.5])
        train = Dataset(x=np.concatenate([x0, x1])[:, None],
                        y=np.repeat([0, 1], [18, 2]), class_names=("a", "b"),
                        feature_names=("f",))
        model = fit_lda(train)
        v = float(ridged_covariance(train.x)[0, 0])
        xstar = v * math.log(9.0) / 2.0
        s = model.scores_batch(np.array([[xstar]]))[0]
        assert abs(s[0] - s[1]) < 1e-9
        assert model.classify_batch(np.array([[xstar - 1e-4]]))[0] == 0
        assert model.classify_batch(np.array([[xstar + 1e-4]]))[0] == 1

    def test_single_class_rejected(self):
        ds = Dataset(x=np.random.default_rng(0).normal(size=(8, 2)),
                     y=np.zeros(8, dtype=int), class_names=("a",),
                     feature_names=("f0", "f1"))
        with pytest.raises(EmptyClass, match="training data holds a single class"):
            fit_lda(ds)

    def test_zero_covariance_rejected(self):
        with pytest.raises(NotPositiveDefinite, match="shared covariance not invertible"):
            fit_lda(identical_rows())


class TestQda:
    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_matches_oracle(self, mode):
        rng = np.random.default_rng(5)
        for trial in range(15):
            train = make_blobs(rng.normal(size=(3, 3)) * 3, 15, scale=1.2, seed=trial)
            model = fit_qda(train, mode=nm.CovMode(mode))
            for _ in range(5):
                x = rng.normal(size=3) * 2
                got = model.scores_batch(x[None])[0]
                want = qda_scores_oracle(train, x, mode=mode)
                assert rel_err(got, want).max() < 1e-8

    def test_unequal_variance_boundary(self):
        # equal means, sample variances 1 and 4: two symmetric boundaries
        h = math.sqrt(0.5)
        x0 = np.array([-h, h, -h, h])
        x1 = 2.0 * x0
        train = Dataset(x=np.concatenate([x0, x1])[:, None],
                        y=np.repeat([0, 1], 4), class_names=("lo", "hi"),
                        feature_names=("f",))
        model = fit_qda(train)
        v0, v1 = (float(ridged_covariance(train.x[train.y == j])[0, 0]) for j in (0, 1))
        xstar = math.sqrt(math.log(v1 / v0) * v0 * v1 / (v1 - v0))
        s = model.scores_batch(np.array([[xstar]]))[0]
        assert abs(s[0] - s[1]) < 1e-9
        assert model.classify_batch(np.array([[xstar - 1e-4]]))[0] == 0
        assert model.classify_batch(np.array([[xstar + 1e-4]]))[0] == 1
        assert model.classify_batch(np.array([[-xstar - 1e-4]]))[0] == 1

    def test_equalized_covariances_reduce_to_lda(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            train = make_blobs(rng.normal(size=(4, 3)) * 2.5, 20, scale=0.8,
                               seed=100 + trial)
            lda = fit_lda(train)
            qda = fit_qda(train)
            chol = nm.cholesky_spd(ridged_covariance(train.x), "shared covariance")
            log_det = 2.0 * float(np.log(chol.diagonal()).sum())
            equalized = QdaClassifier(
                means=qda.means, log_priors=qda.log_priors, mode=qda.mode,
                chol_factors=np.repeat(chol[None, :, :], train.n_classes, axis=0),
                log_dets=np.full(train.n_classes, log_det),
                class_names=qda.class_names)
            grid = rng.normal(size=(60, 3)) * 3
            assert np.array_equal(equalized.classify_batch(grid),
                                  lda.classify_batch(grid))

    def test_class_too_small(self):
        ds = Dataset(x=np.array([[0.0], [1.0], [2.0]]), y=np.array([0, 0, 1]),
                     class_names=("a", "b"), feature_names=("f",))
        with pytest.raises(TooFewSamples, match="class 1 has 1 samples; need >= 2"):
            fit_qda(ds)

    def test_zero_class_covariance_rejected(self):
        with pytest.raises(NotPositiveDefinite, match="class 0 covariance not invertible"):
            fit_qda(identical_rows())


def one_feature_nb(class_samples, kind, b):
    """A one-feature naive Bayes model whose class j holds class_samples[j]."""
    sizes = [len(samples) for samples in class_samples]
    train = Dataset(x=np.concatenate(class_samples)[:, None],
                    y=np.repeat(np.arange(len(sizes)), sizes),
                    class_names=tuple(f"c{j}" for j in range(len(sizes))),
                    feature_names=("f",))
    return fit_nb(train, kernel=kind, bandwidth=b)


def kde_log_densities(class_samples, kind, b, x):
    """Each class's log KDE at the scalar x, read off the scores of
    `one_feature_nb`."""
    model = one_feature_nb(class_samples, kind, b)
    return model.scores_batch(np.array([[x]]))[0] - model.log_priors


class TestKde:
    def test_hand_values_at_zero(self):
        classes = [np.array([0.0]), np.array([3.0])]
        normal, triangular, epanechnikov = (
            kde_log_densities(classes, kind, 1.0, 0.0)[0]
            for kind in (KernelKind.NORMAL, KernelKind.TRIANGULAR,
                         KernelKind.EPANECHNIKOV))
        assert normal == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)
        assert triangular == pytest.approx(0.0, abs=1e-12)
        assert epanechnikov == pytest.approx(math.log(0.75), abs=1e-12)

    @pytest.mark.parametrize("kind", KERNELS)
    def test_matches_loop_oracle(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(30):
            classes = [rng.normal(size=int(rng.integers(1, 25))) * 2,
                       rng.normal(size=1) * 2]
            b = float(rng.uniform(0.05, 2.0))
            x = float(rng.normal() * 2)
            got = kde_log_densities(classes, kind, b, x)
            for j, samples in enumerate(classes):
                want = kde_oracle(samples, kind, b, x)
                assert got[j] == pytest.approx(want, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("bandwidth", [0.2, 1.0, 3.0])
    @pytest.mark.parametrize("kind", KERNELS)
    def test_unit_integral(self, kind, bandwidth):
        lim = (12.0 if kind is KernelKind.NORMAL else 1.0) * bandwidth
        t = np.linspace(-lim, lim, 200_001)
        density = _kernel_terms(kind, bandwidth, t.copy()) * _density_scale(
            kind, bandwidth, 1)
        assert np.trapezoid(density, t) == pytest.approx(1.0, abs=1e-6)

    def test_floor_outside_support(self):
        classes = [np.array([0.0]), np.array([10.0])]
        got = kde_log_densities(classes, KernelKind.TRIANGULAR, 0.5, 10.0)
        assert got[0] == pytest.approx(LOG_DENSITY_FLOOR, rel=1e-15)
        assert got[1] == pytest.approx(math.log(2.0), rel=1e-12)


class TestSupportEdge:
    """The compact kernels at and beyond |query - row| = h. At the query 0,
    the difference to a row r is exactly -r; every class has the same size
    and so the same prior, and the scores compare bit for bit."""

    COMPACT = [KernelKind.TRIANGULAR, KernelKind.EPANECHNIKOV]

    @staticmethod
    def scores_at_zero(class_samples, kind, h):
        model = one_feature_nb(class_samples, kind, h)
        return model.scores_batch(np.zeros((1, 1)))[0], model.log_priors

    # at 0.41, |t| * (1 / h) rounds below 1; at 0.3, t^2 * (1 / h^2) does
    @pytest.mark.parametrize("h", [0.2, 0.3, 0.41, 1.7])
    @pytest.mark.parametrize("kind", COMPACT)
    def test_row_one_bandwidth_away_adds_exactly_zero(self, kind, h):
        rows = [np.array([0.1, h]), np.array([0.1, -h]), np.array([0.1, 5.0 * h])]
        scores, _ = self.scores_at_zero(rows, kind, h)
        assert scores[0] == scores[1] == scores[2] > LOG_DENSITY_FLOOR
        scores, log_priors = self.scores_at_zero([np.array([h]), np.array([-h])],
                                                 kind, h)
        assert np.array_equal(scores, LOG_DENSITY_FLOOR + log_priors)

    @pytest.mark.parametrize("kind", COMPACT)
    def test_mirrored_rows_give_the_same_density(self, kind):
        rng = np.random.default_rng(31)
        for _ in range(20):
            h = float(rng.uniform(0.05, 2.0))
            dist = rng.uniform(0.0, 1.5 * h, size=7)
            scores, _ = self.scores_at_zero([dist, -dist], kind, h)
            assert scores[0] == scores[1]

    @pytest.mark.parametrize("kind", COMPACT)
    def test_query_outside_every_support_scores_the_floor(self, kind):
        h = 0.2
        rows = [np.array([-h, h, 0.75]), np.array([1.5 * h, -3.0, 1.0])]
        scores, log_priors = self.scores_at_zero(rows, kind, h)
        assert np.array_equal(scores, LOG_DENSITY_FLOOR + log_priors)


class TestNaiveBayes:
    @pytest.mark.parametrize("kind", KERNELS)
    def test_scores_match_oracle(self, kind):
        rng = np.random.default_rng(21)
        train = make_blobs([[0.0, 0.0], [1.0, 2.0], [2.0, 0.5]], 12, scale=0.7, seed=2)
        model = fit_nb(train, kernel=kind, bandwidth=0.4)
        counts = np.bincount(train.y, minlength=3)
        for _ in range(20):
            x = rng.normal(size=2) * 1.5
            want = np.array([
                sum(kde_oracle(train.x[train.y == j][:, v], kind, 0.4, x[v])
                    for v in range(2)) + math.log(counts[j] / train.n)
                for j in range(3)])
            assert rel_err(model.scores_batch(x[None])[0], want).max() < 1e-8

    def test_default_bandwidth(self):
        train = make_blobs([[0.0], [5.0]], 8, scale=0.3, seed=3)
        assert fit_nb(train).bandwidth == DEFAULT_BANDWIDTH == 0.2

    def test_feature_permutation_invariance(self):
        train = make_blobs([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0]], 15, scale=0.5, seed=4)
        perm = [2, 0, 1]
        permuted = Dataset(x=train.x[:, perm], y=train.y,
                           class_names=train.class_names,
                           feature_names=tuple(train.feature_names[p] for p in perm))
        a = fit_nb(train, bandwidth=0.3)
        b = fit_nb(permuted, bandwidth=0.3)
        x = np.array([0.5, 0.7, 1.4])
        assert np.allclose(a.scores_batch(x[None]), b.scores_batch(x[None, perm]),
                           rtol=1e-12)

    def test_batch_matches_single(self):
        train = make_blobs([[0.0, 0.0], [3.0, 3.0]], 10, scale=0.5, seed=5)
        model = fit_nb(train, bandwidth=0.5)
        grid = np.random.default_rng(6).normal(size=(15, 2)) * 2
        batch = model.scores_batch(grid)
        for i, x in enumerate(grid):
            assert np.allclose(batch[i], model.scores_batch(x[None])[0], rtol=1e-12)

    @pytest.mark.parametrize("bandwidth", [-0.1, 0.0, np.inf, np.nan])
    def test_bad_bandwidth(self, bandwidth):
        train = make_blobs([[0.0], [2.0]], 5, scale=0.2, seed=7)
        with pytest.raises(BadConfig, match=r"^bandwidth must be a real number in \(0, inf\), got "):
            fit_nb(train, bandwidth=bandwidth)



class TestBlockedNaiveBayes:
    @pytest.mark.parametrize("kind", KERNELS)
    def test_block_size_does_not_change_scores(self, kind, monkeypatch):
        # 400 rows x 5 features per class take 16 KB per query, so the
        # default budget splits the 43 queries into 3 blocks
        train = random_dataset(800, 5, 2, seed=22)
        queries = np.random.default_rng(23).normal(size=(43, 5))
        model = fit_nb(train, kernel=kind, bandwidth=0.3)
        default = model.scores_batch(queries)
        monkeypatch.setattr(nm, "BLOCK_BYTES", 1)
        one_per_block = model.scores_batch(queries)
        monkeypatch.setattr(nm, "BLOCK_BYTES", 1 << 40)
        one_block = model.scores_batch(queries)
        assert np.array_equal(default, one_block)
        assert np.array_equal(one_per_block, one_block)

    def test_predict_memory_stays_bounded(self):
        # one whole-batch (queries x class rows x d) tensor would take 58 MB
        # per class, and the kernel evaluation makes several
        train = random_dataset(4500, 16, 5, seed=24)
        queries = np.random.default_rng(25).normal(size=(500, 16))
        model = fit_nb(train, kernel=KernelKind.NORMAL)
        tracemalloc.start()
        try:
            model.scores_batch(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestAgainstFrozenLoop:
    """The in-place scoring against the per-operation loop it replaced."""

    @staticmethod
    def rate_like(n, seed):
        # five features; the first spreads like raw five-year rates in basis
        # points, so at bandwidth 0.2 most of its normal-kernel terms
        # underflow to zero and some to subnormal numbers
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 5))
        x[:, 0] = 100.0 + 8.0 * x[:, 0]
        return x

    @pytest.mark.parametrize("block_bytes", [1, nm.BLOCK_BYTES, 1 << 40])
    @pytest.mark.parametrize("kind", KERNELS)
    def test_scores_equal_bit_for_bit(self, kind, block_bytes, monkeypatch):
        train = random_dataset(600, 5, 3, seed=26)
        train = Dataset(x=self.rate_like(600, seed=27), y=train.y,
                        class_names=train.class_names,
                        feature_names=train.feature_names)
        queries = self.rate_like(43, seed=28)
        lone = Dataset(x=train.x[:, :1], y=train.y, class_names=train.class_names,
                       feature_names=train.feature_names[:1])
        monkeypatch.setattr(nm, "BLOCK_BYTES", block_bytes)
        for data, q in ((train, queries), (lone, queries[:, :1])):
            model = fit_nb(data, kernel=kind)
            assert np.array_equal(model.scores_batch(q), ref.nb_scores_batch(model, q))

    @pytest.mark.parametrize("kind", KERNELS)
    def test_partial_last_blocks(self, kind, monkeypatch):
        # blocks of 2 to 42 queries leave a partial last block of the 43
        # queries, a prime, in every class of both models
        train = Dataset(x=self.rate_like(600, seed=27),
                        y=random_dataset(600, 5, 3, seed=26).y,
                        class_names=("c0", "c1", "c2"),
                        feature_names=tuple(f"f{i}" for i in range(5)))
        queries = self.rate_like(43, seed=28)
        lone = Dataset(x=train.x[:, :1], y=train.y, class_names=train.class_names,
                       feature_names=train.feature_names[:1])
        for data, q in ((train, queries), (lone, queries[:, :1])):
            model = fit_nb(data, kernel=kind)
            sizes = [samples.nbytes for samples in model.class_samples]
            monkeypatch.setattr(nm, "BLOCK_BYTES", 5 * max(sizes))
            assert all(2 <= nm.BLOCK_BYTES // size <= 42 for size in sizes)
            assert np.array_equal(model.scores_batch(q), ref.nb_scores_batch(model, q))

    def test_rate_column_underflows(self):
        t = (self.rate_like(43, seed=28)[:, None, 0]
             - self.rate_like(600, seed=27)[None, :, 0])
        terms = _kernel_terms(KernelKind.NORMAL, DEFAULT_BANDWIDTH, t)
        assert np.mean(terms < np.finfo(float).tiny) > 0.5
        assert np.any((terms > 0.0) & (terms < np.finfo(float).tiny))

    def test_argmax_matches_the_kde_oracle_outside_ties(self):
        # the benchmark's naive Bayes check: wherever the oracle's top two
        # scores differ by more than 1e-9 relative, the model's arg-max
        # must be the oracle's
        y = random_dataset(600, 5, 3, seed=26).y
        x_train = self.rate_like(600, seed=27)
        queries = self.rate_like(43, seed=28)
        train = Dataset(x=x_train, y=y, class_names=("c0", "c1", "c2"),
                        feature_names=tuple(f"f{i}" for i in range(5)))
        for kind in KERNELS:
            model = fit_nb(train, kernel=kind)
            want = np.array([[
                sum(kde_oracle(x_train[y == j, v], kind, DEFAULT_BANDWIDTH, q[v])
                    for v in range(5)) + model.log_priors[j]
                for j in range(3)] for q in queries])
            top2 = np.sort(want, axis=1)[:, -2:]
            clear = top2[:, 1] - top2[:, 0] > 1e-9 * np.maximum(
                1.0, np.abs(top2).max(axis=1))
            assert clear.sum() >= 30, kind
            got = np.argmax(model.scores_batch(queries), axis=1)
            assert np.array_equal(got[clear], np.argmax(want, axis=1)[clear]), kind
