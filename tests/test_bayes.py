import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_blobs, random_dataset
from cdsproxy import numerics as nm
from cdsproxy.bayes import (
    DEFAULT_BANDWIDTH,
    LOG_DENSITY_FLOOR,
    KernelKind,
    QdaClassifier,
    fit_lda,
    fit_nb,
    fit_qda,
    kde_log_density,
    kernel_values,
)
from cdsproxy.core import Dataset
from cdsproxy.errors import (
    ClassTooSmall,
    EmptySample,
    NonpositiveBandwidth,
    SingleClassInput,
)

KERNELS = list(KernelKind)


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
                assert rel_err(model.scores(x), lda_scores_oracle(train, x)).max() < 1e-8

    def test_symmetric_boundary_and_tie(self):
        x0 = np.array([-1.5, -0.5, -1.5, -0.5, -1.5, -0.5])
        x1 = -x0
        train = Dataset(x=np.concatenate([x0, x1])[:, None],
                        y=np.repeat([0, 1], 6), class_names=("a", "b"),
                        feature_names=("f",))
        model = fit_lda(train)
        assert model.classify(np.array([-0.1])) == 0
        assert model.classify(np.array([0.1])) == 1
        # exactly on the boundary the scores tie; MAP picks the lower index
        s = model.scores(np.array([0.0]))
        assert s[0] == s[1]
        assert model.classify(np.array([0.0])) == 0

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
        v = float(model.covariance[0, 0])
        xstar = v * math.log(9.0) / 2.0
        s = model.scores(np.array([xstar]))
        assert abs(s[0] - s[1]) < 1e-9
        assert model.classify(np.array([xstar - 1e-4])) == 0
        assert model.classify(np.array([xstar + 1e-4])) == 1

    def test_uniform_priors_option(self):
        train = make_blobs([[0.0], [3.0]], 10, scale=0.5, seed=1)
        skewed = train.subset(np.arange(train.n) != 0)  # 9 vs 10 samples
        emp = fit_lda(skewed)
        uni = fit_lda(skewed, uniform_priors=True)
        assert not np.allclose(emp.offsets, uni.offsets)
        assert np.allclose(uni.priors.pi, 0.5)

    def test_single_class_rejected(self):
        ds = Dataset(x=np.random.default_rng(0).normal(size=(8, 2)),
                     y=np.zeros(8, dtype=int), class_names=("a",),
                     feature_names=("f0", "f1"))
        with pytest.raises(SingleClassInput):
            fit_lda(ds)


class TestQda:
    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_matches_oracle(self, mode):
        rng = np.random.default_rng(5)
        for trial in range(15):
            train = make_blobs(rng.normal(size=(3, 3)) * 3, 15, scale=1.2, seed=trial)
            model = fit_qda(train, mode=nm.CovMode(mode))
            for _ in range(5):
                x = rng.normal(size=3) * 2
                got = model.scores(x)
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
        v0, v1 = model.covariances[0, 0, 0], model.covariances[1, 0, 0]
        xstar = math.sqrt(math.log(v1 / v0) * v0 * v1 / (v1 - v0))
        s = model.scores(np.array([xstar]))
        assert abs(s[0] - s[1]) < 1e-9
        assert model.classify(np.array([xstar - 1e-4])) == 0
        assert model.classify(np.array([xstar + 1e-4])) == 1
        assert model.classify(np.array([-xstar - 1e-4])) == 1

    def test_equalized_covariances_reduce_to_lda(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            train = make_blobs(rng.normal(size=(4, 3)) * 2.5, 20, scale=0.8,
                               seed=100 + trial)
            lda = fit_lda(train)
            qda = fit_qda(train)
            shared = np.repeat(lda.covariance[None, :, :], train.n_classes, axis=0)
            chol = nm.cholesky_spd(lda.covariance)
            log_det = 2.0 * float(np.log(chol.diagonal()).sum())
            equalized = QdaClassifier(
                means=qda.means, covariances=shared, priors=qda.priors,
                mode=qda.mode,
                chol_factors=np.repeat(chol[None, :, :], train.n_classes, axis=0),
                log_dets=np.full(train.n_classes, log_det),
                class_names=qda.class_names)
            grid = rng.normal(size=(60, 3)) * 3
            assert np.array_equal(equalized.classify_batch(grid),
                                  lda.classify_batch(grid))

    def test_class_too_small(self):
        ds = Dataset(x=np.array([[0.0], [1.0], [2.0]]), y=np.array([0, 0, 1]),
                     class_names=("a", "b"), feature_names=("f",))
        with pytest.raises(ClassTooSmall):
            fit_qda(ds)


class TestKde:
    def test_hand_values_at_zero(self):
        samples = np.array([0.0])
        assert kde_log_density(samples, KernelKind.NORMAL, 1.0, 0.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12)
        assert kde_log_density(samples, KernelKind.TRIANGULAR, 1.0, 0.0) == pytest.approx(0.0)
        assert kde_log_density(samples, KernelKind.EPANECHNIKOV, 1.0, 0.0) == pytest.approx(
            math.log(0.75), abs=1e-12)

    @pytest.mark.parametrize("kind", KERNELS)
    def test_matches_loop_oracle(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(30):
            samples = rng.normal(size=int(rng.integers(1, 25))) * 2
            b = float(rng.uniform(0.05, 2.0))
            x = float(rng.normal() * 2)
            got = kde_log_density(samples, kind, b, x)
            want = kde_oracle(samples, kind, b, x)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("kind", KERNELS)
    def test_unit_integral(self, kind):
        lim = 12.0 if kind is KernelKind.NORMAL else 1.0
        u = np.linspace(-lim, lim, 200_001)
        integral = np.trapezoid(kernel_values(kind, u), u)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_floor_outside_support(self):
        val = kde_log_density(np.array([0.0]), KernelKind.TRIANGULAR, 0.5, 10.0)
        assert val == LOG_DENSITY_FLOOR

    def test_errors(self):
        with pytest.raises(EmptySample):
            kde_log_density(np.array([]), KernelKind.NORMAL, 1.0, 0.0)
        with pytest.raises(NonpositiveBandwidth):
            kde_log_density(np.array([1.0]), KernelKind.NORMAL, 0.0, 0.0)


class TestNaiveBayes:
    @pytest.mark.parametrize("kind", KERNELS)
    def test_scores_match_oracle(self, kind):
        rng = np.random.default_rng(21)
        train = make_blobs([[0.0, 0.0], [1.0, 2.0], [2.0, 0.5]], 12, scale=0.7, seed=2)
        model = fit_nb(train, kernel=kind, bandwidth=0.4)
        counts = train.class_counts()
        for _ in range(20):
            x = rng.normal(size=2) * 1.5
            want = np.array([
                sum(kde_oracle(train.x[train.y == j][:, v], kind, 0.4, x[v])
                    for v in range(2)) + math.log(counts[j] / train.n)
                for j in range(3)])
            assert rel_err(model.scores(x), want).max() < 1e-8

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
        assert np.allclose(a.scores(x), b.scores(x[perm]), rtol=1e-12)

    def test_batch_matches_single(self):
        train = make_blobs([[0.0, 0.0], [3.0, 3.0]], 10, scale=0.5, seed=5)
        model = fit_nb(train, bandwidth=0.5)
        grid = np.random.default_rng(6).normal(size=(15, 2)) * 2
        batch = model.scores_batch(grid)
        for i, x in enumerate(grid):
            assert np.allclose(batch[i], model.scores(x), rtol=1e-12)

    def test_bad_bandwidth(self):
        train = make_blobs([[0.0], [2.0]], 5, scale=0.2, seed=7)
        with pytest.raises(NonpositiveBandwidth):
            fit_nb(train, bandwidth=-0.1)



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
