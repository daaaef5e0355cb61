import numpy as np
import pytest

from cdsproxy import numerics as nm
from cdsproxy.errors import (
    BadConfig,
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    SchemaViolation,
    TooFewSamples,
)


def two_pass_covariance_oracle(x):
    """Plain-loop unbiased covariance, independent of the implementation."""
    n, d = x.shape
    mean = [sum(x[i, j] for i in range(n)) / n for j in range(d)]
    cov = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            cov[a, b] = sum((x[i, a] - mean[a]) * (x[i, b] - mean[b]) for i in range(n)) / (n - 1)
    return np.array(mean), cov


def random_spd(rng, d, scale=1.0):
    m = rng.normal(size=(d, d)) * scale
    return m @ m.T + d * scale * scale * np.eye(d) * 0.1


class TestCovariance:
    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            d = int(rng.integers(1, 8))
            x = rng.normal(size=(n, d)) * rng.uniform(0.1, 50.0)
            mean, cov = two_pass_covariance_oracle(x)
            got_mean, got_cov = nm.sample_mean_covariance(x)
            assert np.allclose(got_mean, mean, rtol=1e-12, atol=1e-12)
            assert np.allclose(got_cov, cov, rtol=1e-10, atol=1e-12)

    def test_diagonal_mode_zeroes_off_diagonals(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 5))
        _, full = nm.sample_mean_covariance(x, nm.CovMode.FULL)
        _, diag = nm.sample_mean_covariance(x, nm.CovMode.DIAGONAL)
        assert np.allclose(np.diag(diag), np.diag(full))
        off = diag - np.diag(np.diag(diag))
        assert np.all(off == 0.0)

    def test_single_sample_rejected(self):
        with pytest.raises(TooFewSamples, match="covariance needs >= 2 samples, got 1"):
            nm.sample_mean_covariance(np.ones((1, 3)))

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 6))
        _, cov = nm.sample_mean_covariance(x)
        assert np.array_equal(cov, cov.T)
        w = np.linalg.eigvalsh(cov)
        assert w.min() >= -1e-10


class TestJacobi:
    def test_reconstruction_and_orthogonality_bulk(self):
        # 1000 seeded symmetric matrices up to d=16
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            d = int(rng.integers(1, 17))
            scale = 10.0 ** rng.integers(-3, 4)
            a = rng.normal(size=(d, d)) * scale
            a = 0.5 * (a + a.T)
            w, v = nm.eigen_symmetric(a)
            norm = max(np.abs(a).max(), 1e-30)
            assert np.abs(a @ v - v * w).max() <= 1e-10 * max(norm, 1.0)
            assert np.abs(v.T @ v - np.eye(d)).max() <= 1e-12

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 12))
            a = rng.normal(size=(d, d))
            a = a + a.T
            ours, _ = nm.eigen_symmetric(a)
            ref = np.linalg.eigvalsh(a)
            assert np.allclose(ours, ref, rtol=1e-9, atol=1e-9)

    def test_identity(self):
        values, _ = nm.eigen_symmetric(np.eye(4))
        assert np.allclose(values, 1.0)

    def test_non_symmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            nm.eigen_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSpdSolver:
    @pytest.mark.parametrize("n", [1, nm._SOLVE_BLOCK - 1, nm._SOLVE_BLOCK,
                                   nm._SOLVE_BLOCK + 1, 450])
    def test_matches_the_lu_solve(self, n):
        # a diagonal from 1e-6 to 1e6, as the interior point's Newton
        # matrices have; agreement within 1e-12 of the largest entry
        rng = np.random.default_rng(n)
        g = rng.normal(size=(n, n))
        a = g @ g.T / n + np.diag(rng.permutation(np.logspace(-6, 6, n)))
        solve = nm.spd_solver(a, "a")
        for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
            kept = b.copy()
            want = np.linalg.solve(a, b)
            got = solve(b)
            assert got.shape == b.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(b, kept)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            nm.spd_solver(np.array([[1.0, 2.0], [2.0, 1.0]]), "a")


class TestSpdSolve:
    def test_identity_exact(self):
        b = np.array([3.0, 4.0])
        assert np.array_equal(nm.solve_spd(np.eye(2), b, "I"), b)

    def test_residual_small(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = int(rng.integers(1, 12))
            a = random_spd(rng, d, scale=rng.uniform(0.1, 10.0))
            b = rng.normal(size=d)
            x = nm.solve_spd(a, b, "a")
            assert np.linalg.norm(a @ x - b) <= 1e-10 * max(np.linalg.norm(b), 1.0)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(13)
        a = random_spd(rng, 5)
        b = rng.normal(size=(5, 3))
        x = nm.solve_spd(a, b, "a")
        assert np.abs(a @ x - b).max() < 1e-10

    def test_indefinite_rejected(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefinite):
            nm.solve_spd(a, np.ones(2), "a")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nm.solve_spd(np.eye(3), np.ones(2), "I")

    @pytest.mark.parametrize("factor", [
        pytest.param(lambda a: nm.cholesky_spd(a, "the test matrix"), id="cholesky_spd"),
        pytest.param(lambda a: nm.spd_solver(a, "the test matrix"), id="spd_solver"),
        pytest.param(lambda a: nm.solve_spd(a, np.ones(2), "the test matrix"),
                     id="solve_spd")])
    def test_failed_factorisation_names_its_matrix(self, factor):
        with pytest.raises(NotPositiveDefinite,
                           match="^the test matrix: matrix is not positive definite: "):
            factor(np.diag([1.0, -1.0]))

    def test_add_ridge(self):
        assert np.array_equal(nm.add_ridge(np.eye(4)), np.eye(4) * (1.0 + 1e-8))
        ridged = nm.add_ridge(np.eye(4) * 2.0)
        assert np.allclose(np.diag(ridged), 2.0 + 2e-8)


class TestPca:
    def test_dominant_direction(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=300)
        x = np.stack([t, t], axis=1) + rng.normal(size=(300, 2)) * 1e-3
        basis = nm.pca_fit(x)
        lead = basis.components[:, 0]
        assert np.allclose(np.abs(lead), 1.0 / np.sqrt(2.0), atol=1e-2)
        assert lead[np.argmax(np.abs(lead))] > 0  # sign convention

    def test_transform_isometry_full_rank(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 6))
        basis = nm.pca_fit(x)
        z = nm.pca_transform(basis, x, 6)
        for i in range(0, 30, 5):
            da = np.linalg.norm(x[i] - x[i + 1])
            db = np.linalg.norm(z[i] - z[i + 1])
            assert abs(da - db) <= 1e-10 * max(da, 1.0)

    def test_variance_explained_profile(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(60, 5)) * np.array([10.0, 3.0, 1.0, 0.3, 0.1])
        basis = nm.pca_fit(x)
        ve = basis.variance_explained
        assert np.all(np.diff(ve) >= -1e-15)
        assert abs(ve[-1] - 1.0) <= 1e-10
        assert np.all(np.diff(basis.eigenvalues) <= 1e-12)  # descending

    def test_component_count_bounds(self):
        x = np.random.default_rng(8).normal(size=(10, 3))
        basis = nm.pca_fit(x)
        with pytest.raises(BadConfig, match="component count must be a positive integer, got 0"):
            nm.pca_transform(basis, x[0], 0)
        with pytest.raises(BadConfig, match=r"component count 4 outside 1\.\.3"):
            nm.pca_transform(basis, x[0], 4)

    def test_single_vector_transform(self):
        x = np.random.default_rng(9).normal(size=(10, 3))
        basis = nm.pca_fit(x)
        z = nm.pca_transform(basis, x[0], 2)
        assert z.shape == (2,)


class TestStandardizer:
    def test_hand_case(self):
        s = nm.standardizer_fit(np.array([[1.0], [3.0]]))
        got = s.apply(np.array([[1.0], [3.0]])).ravel()
        assert np.allclose(got, [-0.7071067811865475, 0.7071067811865475])

    def test_constant_column_clamped(self):
        s = nm.standardizer_fit(np.full((5, 2), 7.0))
        assert np.all(s.scales == nm.SCALE_FLOOR)
        assert np.all(s.apply(np.full((3, 2), 7.0)) == 0.0)

    def test_unit_moments(self):
        x = np.random.default_rng(10).normal(size=(200, 4)) * 5.0 - 2.0
        z = nm.standardizer_fit(x).apply(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_apply_checks_rows_as_as_rows_does(self):
        s = nm.standardizer_fit(np.array([[1.0, 2.0], [3.0, 5.0]]))
        assert s.apply([1.0, 2.0]).shape == (1, 2)
        with pytest.raises(DimensionMismatch,
                           match=r"rows of shape \(1, 3\) do not have 2 features"):
            s.apply(np.ones(3))
        with pytest.raises(SchemaViolation, match="row 1, column 0 is nan"):
            s.apply([[0.0, 0.0], [np.nan, 0.0]])

    def test_needs_two_rows(self):
        with pytest.raises(TooFewSamples, match="standardizer needs >= 2 samples, got 1"):
            nm.standardizer_fit(np.ones((1, 2)))
