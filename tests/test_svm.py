import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_blobs, random_dataset
from qp_reference import dual_objective, project_box_simplex, reference_dual_solution
from cdsproxy import numerics, svm
from cdsproxy.core import Dataset, FeatureSelection, build_dataset
from cdsproxy.datagen import GeneratorConfig, generate_panel
from cdsproxy.errors import (
    BadConfig,
    DimensionMismatch,
    EmptyClass,
    NoConvergence,
    NotPositiveDefinite,
)
from cdsproxy.evaluation import FoldPlan, stratified_folds
from cdsproxy.svm import (
    DEFAULT_COST,
    DEFAULT_KKT_TOL,
    KernelSpec,
    SvmKernel,
    default_gaussian_scale,
    fit_svm_binary,
    fit_svm_multiclass,
)


def binary_problem(seed, n_per_side, d, separation):
    rng = np.random.default_rng(seed)
    x = np.vstack([
        rng.normal(size=(n_per_side, d)) - separation,
        rng.normal(size=(n_per_side, d)) + separation,
    ])
    y = np.concatenate([-np.ones(n_per_side), np.ones(n_per_side)])
    return x, y


def decision(machine, x):
    """One machine's decision values at rows x, summed over its support
    vectors alone."""
    sv = machine.alpha > 0.0
    k = machine.kernel.gram(x, machine.x_train[sv])
    return k @ (machine.alpha[sv] * machine.y_train[sv]) + machine.bias


class TestReferenceProjection:
    def test_matches_bisection_and_is_feasible(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(4, 24))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            y[0], y[1] = -1.0, 1.0
            v = rng.normal(size=n) * 3.0
            cost = float(rng.uniform(0.3, 4.0))
            got = project_box_simplex(v, y, cost)
            assert abs(got @ y) <= 1e-9
            assert got.min() >= -1e-12 and got.max() <= cost + 1e-12
            lo, hi = -abs(v).max() - cost - 1, abs(v).max() + cost + 1
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if y @ np.clip(v - mid * y, 0.0, cost) > 0.0:
                    lo = mid
                else:
                    hi = mid
            want = np.clip(v - 0.5 * (lo + hi) * y, 0.0, cost)
            assert np.allclose(got, want, atol=1e-8)


class TestKernels:
    def test_linear_gram(self):
        x = np.array([[1.0, 2.0], [3.0, -1.0]])
        spec = KernelSpec(SvmKernel.LINEAR)
        assert np.allclose(spec.gram(x, x), x @ x.T)

    def test_polynomial_gram(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        spec = KernelSpec(SvmKernel.POLYNOMIAL, degree=3)
        want = (1.0 + x @ x.T) ** 3
        assert np.allclose(spec.gram(x, x), want)

    def test_gaussian_gram_and_default_scale(self):
        rng = np.random.default_rng(2)
        x, z = rng.normal(size=(5, 4)), rng.normal(size=(3, 4))
        spec = KernelSpec(SvmKernel.GAUSSIAN).resolve(4)
        assert spec.scale == default_gaussian_scale(4) == 1.0 / 8.0
        got = spec.gram(x, z)
        for i in range(5):
            for j in range(3):
                want = np.exp(-spec.scale * np.sum((x[i] - z[j]) ** 2))
                assert got[i, j] == pytest.approx(want, rel=1e-12)

    def test_gaussian_diagonal_is_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2)) * 50
        g = KernelSpec(SvmKernel.GAUSSIAN).resolve(2).gram(x, x)
        assert np.allclose(np.diag(g), 1.0)
        assert g.max() <= 1.0 + 1e-12

    def test_bad_degree(self):
        with pytest.raises(BadConfig):
            KernelSpec(SvmKernel.POLYNOMIAL, degree=0).gram(
                np.ones((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("kind,fields,message", [
        pytest.param(SvmKernel.POLYNOMIAL, {"degree": 0}, "positive integer, got 0",
                     id="degree-0"),
        pytest.param("polynomial", {"degree": 2.5}, "positive integer, got 2.5",
                     id="degree-2.5"),
        pytest.param(SvmKernel.POLYNOMIAL, {"degree": math.inf},
                     "positive integer, got inf", id="degree-inf"),
        pytest.param(SvmKernel.GAUSSIAN, {"scale": -1.0},
                     r"must be a real number in \(0, inf\), got -1.0", id="scale-negative"),
        pytest.param("gaussian", {"scale": np.nan},
                     r"must be a real number in \(0, inf\), got nan", id="scale-nan"),
        # an infinite scale leaves the Gram diagonal exp(-inf * 0) = nan
        pytest.param("gaussian", {"scale": math.inf},
                     r"must be a real number in \(0, inf\), got inf", id="scale-inf"),
        # a setting the kind never reads would be dropped without a word
        pytest.param(SvmKernel.LINEAR, {"scale": 5.0},
                     "a linear kernel has no scale, got 5.0", id="linear-scale"),
        pytest.param("polynomial", {"scale": 0.5},
                     "a polynomial kernel has no scale, got 0.5", id="polynomial-scale"),
        pytest.param(SvmKernel.LINEAR, {"degree": -3},
                     "a linear kernel has no degree, got -3", id="linear-degree"),
        pytest.param(SvmKernel.GAUSSIAN, {"degree": 0},
                     "a gaussian kernel has no degree, got 0", id="gaussian-degree"),
        pytest.param("gaussian", {"scale": 1.0, "degree": 2},
                     "a gaussian kernel has no degree, got 2", id="gaussian-scale-degree")])
    def test_bad_fields_raise_when_the_spec_is_built(self, kind, fields, message):
        with pytest.raises(BadConfig, match=message):
            KernelSpec(kind, **fields)


@functools.cache
def reference_objective(kind, seed, n_per_side, separation):
    """The reference solution's dual objective on the binary problem of a
    test_matches_projected_gradient_reference case, computed once for the
    classes that share the case."""
    x, y = binary_problem(seed, n_per_side, 3, separation)
    gram = KernelSpec(kind, degree=3).resolve(3).gram(x, x)
    return dual_objective(reference_dual_solution(gram, y, DEFAULT_COST),
                          gram, y)


class TestBinarySvm:
    def test_two_point_hard_margin(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        model = fit_svm_binary(x, y, KernelSpec(SvmKernel.LINEAR))
        assert model.alpha == pytest.approx([0.5, 0.5], abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        dec = decision(model, np.array([[-1.0], [0.0], [1.0], [3.0]]))
        assert dec == pytest.approx([-1.0, 0.0, 1.0, 3.0], abs=1e-8)

    def test_xor_with_polynomial_kernel(self):
        x = np.array([[-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        model = fit_svm_binary(x, y, KernelSpec(SvmKernel.POLYNOMIAL, degree=3))
        assert np.all(np.sign(decision(model, x)) == y)

    @pytest.mark.parametrize("kind", list(SvmKernel))
    @pytest.mark.parametrize("seed,n_per_side,separation", [(11, 12, 1.0), (12, 20, 0.4)])
    def test_matches_projected_gradient_reference(self, kind, seed, n_per_side,
                                                  separation):
        x, y = binary_problem(seed, n_per_side, 3, separation)
        spec = KernelSpec(kind, degree=3).resolve(3)
        model = fit_svm_binary(x, y, spec)
        gram = spec.gram(x, x)
        w_ref = reference_objective(kind, seed, n_per_side, separation)
        w_got = dual_objective(model.alpha, gram, y)
        assert abs(w_got - w_ref) <= 1e-4 * max(1.0, abs(w_ref))

    def test_rank_deficient_gaussian_gram_matches_reference(self):
        # two cumulative hazards of one time, as pd_1y and pd_5y on FS6:
        # the points lie on a curve and the gaussian Gram is numerically
        # singular, its smallest eigenvalue below zero by rounding
        rng = np.random.default_rng(1)
        t = np.sort(rng.uniform(0.0, 3.0, size=40))
        x = np.column_stack([1.0 - np.exp(-t), 1.0 - np.exp(-5.0 * t)])
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = np.where(rng.random(40) < 0.5 + 0.3 * np.sin(3.0 * t), 1.0, -1.0)
        spec = KernelSpec(SvmKernel.GAUSSIAN).resolve(2)
        gram = spec.gram(x, x)
        assert np.linalg.eigvalsh(gram).min() < 1e-12
        model = fit_svm_binary(x, y, spec)
        assert model.kkt_gap <= DEFAULT_KKT_TOL
        w_ref = dual_objective(reference_dual_solution(gram, y, DEFAULT_COST),
                               gram, y)
        w_got = dual_objective(model.alpha, gram, y)
        assert abs(w_got - w_ref) <= 1e-4 * max(1.0, abs(w_ref))

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_constraints_feasible(self, seed):
        x, y = binary_problem(seed, 15, 4, 0.7)
        model = fit_svm_binary(x, y, KernelSpec(SvmKernel.GAUSSIAN).resolve(4))
        assert float(np.abs(model.alpha @ y)) <= 1e-6
        assert model.alpha.min() >= -1e-6
        assert model.alpha.max() <= DEFAULT_COST + 1e-6
        assert model.kkt_gap <= 1e-4

    def test_kkt_conditions_pointwise(self):
        x, y = binary_problem(31, 18, 2, 0.6)
        model = fit_svm_binary(x, y, KernelSpec(SvmKernel.LINEAR))
        margins = y * decision(model, x)
        tol = 5e-4
        for i in range(len(y)):
            if model.alpha[i] <= 1e-8:
                assert margins[i] >= 1.0 - tol
            elif model.alpha[i] >= DEFAULT_COST - 1e-8:
                assert margins[i] <= 1.0 + tol
            else:
                assert margins[i] == pytest.approx(1.0, abs=tol)

    def test_deterministic(self):
        x, y = binary_problem(41, 10, 3, 0.8)
        spec = KernelSpec(SvmKernel.GAUSSIAN).resolve(3)
        a = fit_svm_binary(x, y, spec)
        b = fit_svm_binary(x, y, spec)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.bias == b.bias
        assert a.n_updates == b.n_updates

    def test_update_cap_raises(self, monkeypatch):
        monkeypatch.setattr(svm, "DEFAULT_MAX_UPDATES", 3)
        x, y = binary_problem(51, 30, 3, 0.2)
        with pytest.raises(NoConvergence, match="after 3 pair updates"):
            fit_svm_binary(x, y, KernelSpec(SvmKernel.LINEAR))

    def test_non_finite_kernel_values_raise(self):
        # (1 + 1e200^2)^3 overflows, so the gradient and the KKT gap are
        # NaN from the start; the ascent used to return alpha = 0, bias 0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NoConvergence, match="KKT gap nan is not finite"):
                fit_svm_binary([[0.0], [1.0], [1e200], [3.0]],
                               [1.0, 1.0, -1.0, -1.0],
                               KernelSpec(SvmKernel.POLYNOMIAL))
            x, y = binary_problem(52, 6, 2, 1.0)
            gram = x @ x.T
            gram[2, 7] = np.nan
            with pytest.raises(NoConvergence, match="KKT gap nan is not finite"):
                fit_svm_binary(x, y, KernelSpec(SvmKernel.LINEAR), gram=gram)

    def test_no_partner_index_raises(self, monkeypatch):
        # below a negative tolerance the ascent runs on to a point where no
        # index can pair with the steepest one; it used to return there
        monkeypatch.setattr(svm, "DEFAULT_KKT_TOL", -1.0)
        x = np.array([[0.0], [1.0], [3.0], [4.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        with pytest.raises(NoConvergence, match="but no index pairs with"):
            fit_svm_binary(x, y, KernelSpec(SvmKernel.LINEAR))

    def test_bias_without_free_vectors_is_the_feasible_midpoint(self, monkeypatch):
        # a cost this small puts every alpha at C, so no vector is free
        x, y = binary_problem(71, 12, 2, 0.3)
        cost = 1e-3
        monkeypatch.setattr(svm, "DEFAULT_COST", cost)
        model = fit_svm_binary(x, y, KernelSpec(SvmKernel.LINEAR))
        at_zero = model.alpha <= 1e-12 * cost
        at_cost = model.alpha >= cost - 1e-12 * cost
        assert np.all(at_zero | at_cost)
        u = decision(model, x) - model.bias
        lower, upper = -np.inf, np.inf
        for t in range(len(y)):
            if (y[t] > 0 and at_zero[t]) or (y[t] < 0 and at_cost[t]):
                lower = max(lower, y[t] - u[t])
            if (y[t] > 0 and at_cost[t]) or (y[t] < 0 and at_zero[t]):
                upper = min(upper, y[t] - u[t])
        assert np.isfinite(lower) and np.isfinite(upper)
        assert model.bias == pytest.approx(0.5 * (lower + upper), abs=1e-12)

    def test_rejects_bad_labels(self):
        x = np.ones((4, 2))
        with pytest.raises(BadConfig):
            fit_svm_binary(x, np.array([0.0, 1.0, 1.0, 0.0]),
                           KernelSpec(SvmKernel.LINEAR))
        with pytest.raises(EmptyClass, match="binary fit needs both labels present"):
            fit_svm_binary(x, np.ones(4), KernelSpec(SvmKernel.LINEAR))

    @pytest.mark.parametrize("labels,gram_shape,alpha_size", [
        pytest.param(5, None, None, id="5-labels"),
        pytest.param(7, None, None, id="7-labels"),
        pytest.param(6, (5, 5), None, id="gram-5x5"),
        pytest.param(6, (7, 7), None, id="gram-7x7"),
        pytest.param(6, (6, 4), None, id="gram-6x4"),
        pytest.param(6, None, 5, id="5-alphas"),
        pytest.param(6, None, 7, id="7-alphas")])
    def test_arrays_that_do_not_match_the_rows_raise(self, labels, gram_shape,
                                                     alpha_size):
        # these used to raise numpy's untyped broadcast ValueError
        x, _ = binary_problem(53, 3, 2, 1.0)
        y = np.resize([1.0, -1.0], labels)
        gram = None if gram_shape is None else np.ones(gram_shape)
        alpha = None if alpha_size is None else np.zeros(alpha_size)
        with pytest.raises(DimensionMismatch, match="6 rows need 6 labels"):
            fit_svm_binary(x, y, KernelSpec(SvmKernel.LINEAR), gram=gram,
                           alpha=alpha)

    @pytest.mark.parametrize("alpha", [
        pytest.param([-1e-3, 0.0, 0.0, -1e-3, 0.0, 0.0], id="below-0"),
        pytest.param([1.5, 0.0, 0.0, 1.5, 0.0, 0.0], id="above-C"),
        pytest.param([np.nan, 0.0, 0.0, np.nan, 0.0, 0.0], id="nan"),
        # y = (-1, -1, -1, 1, 1, 1): |y'alpha| = 1e-8 > 1e-9 C n = 6e-9
        pytest.param([0.5, 0.0, 0.0, 0.5 + 1e-8, 0.0, 0.0], id="y'alpha")])
    def test_start_off_the_feasible_set_raises(self, alpha):
        x, y = binary_problem(54, 3, 2, 1.0)
        start = np.array(alpha)
        with pytest.raises(BadConfig, match="a start alpha must lie in"):
            fit_svm_binary(x, y, KernelSpec(SvmKernel.LINEAR), alpha=start)
        assert np.array_equal(start, alpha, equal_nan=True)

    def test_start_on_the_feasible_set_is_finished_in_place(self):
        # within 1e-9 C n of y'alpha = 0, the ascent takes the start and
        # ends at the optimum
        x, y = binary_problem(55, 3, 2, 1.0)
        spec = KernelSpec(SvmKernel.LINEAR)
        start = np.array([0.5, 0.0, 0.0, 0.5 + 1e-10, 0.0, 0.0])
        model = fit_svm_binary(x, y, spec, alpha=start)
        assert model.alpha is start
        assert model.n_updates > 0 and model.kkt_gap <= DEFAULT_KKT_TOL
        gram = spec.gram(x, x)
        w_ref = dual_objective(reference_dual_solution(gram, y, DEFAULT_COST),
                               gram, y)
        assert abs(dual_objective(start, gram, y) - w_ref) <= 1e-4 * max(
            1.0, abs(w_ref))


def interior_point_then_ascent(x, y, spec, factored=False):
    """The interior-point path of one multiclass machine, on a binary
    problem; factored passes the interior point the feature-map factor of a
    linear or polynomial kernel, which is None for a map with too many
    columns for the rows."""
    gram = spec.gram(x, x)
    factor = svm._kernel_factor(spec, x) if factored else None
    alpha, iterations = svm._interior_point(gram, y, factor)
    return replace(fit_svm_binary(x, y, spec, gram=gram, alpha=alpha),
                   ip_iterations=iterations)


class TestInteriorPoint:
    @pytest.mark.parametrize("kind", list(SvmKernel))
    @pytest.mark.parametrize("seed,n_per_side,separation", [(11, 12, 1.0), (12, 20, 0.4)])
    def test_matches_projected_gradient_reference(self, kind, seed, n_per_side,
                                                  separation):
        x, y = binary_problem(seed, n_per_side, 3, separation)
        spec = KernelSpec(kind, degree=3).resolve(3)
        gram = spec.gram(x, x)
        w_ref = reference_objective(kind, seed, n_per_side, separation)
        # dense solves, then solves through the feature-map factor, whose
        # 3 or 20 columns are fewer than the 24 or 40 rows; the gaussian
        # kernel has no finite map
        for factored in ((False,) if kind is SvmKernel.GAUSSIAN
                         else (False, True)):
            model = interior_point_then_ascent(x, y, spec, factored)
            assert model.ip_iterations > 0
            w_got = dual_objective(model.alpha, gram, y)
            assert abs(w_got - w_ref) <= 1e-4 * max(1.0, abs(w_ref))
            assert model.alpha.min() >= 0.0 and model.alpha.max() <= DEFAULT_COST
            assert abs(float(model.alpha @ y)) <= 1e-12 * DEFAULT_COST * y.size
            assert model.kkt_gap <= DEFAULT_KKT_TOL

    def test_every_alpha_at_cost_raises_no_warning(self, monkeypatch):
        # a cost this small puts every alpha at C; s = C - alpha and z head
        # to zero, and no division in the solve may warn on the way
        x, y = binary_problem(71, 12, 2, 0.3)
        cost = 1e-3
        monkeypatch.setattr(svm, "DEFAULT_COST", cost)
        model = interior_point_then_ascent(x, y, KernelSpec(SvmKernel.LINEAR))
        assert model.ip_iterations > 0
        assert np.all(model.alpha == cost)
        assert model.n_updates == 0
        assert model.kkt_gap <= DEFAULT_KKT_TOL
        ascent = fit_svm_binary(x, y, KernelSpec(SvmKernel.LINEAR))
        assert np.array_equal(model.alpha, ascent.alpha)

    def test_dense_iteration_factors_once_for_both_directions(self, monkeypatch):
        # the predictor and the corrector solve through one Cholesky of K + D
        x, y = binary_problem(90, 40, 3, 0.3)
        gram = KernelSpec(SvmKernel.POLYNOMIAL).gram(x, x)
        calls = []
        cholesky, solve = np.linalg.cholesky, np.linalg.solve
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: calls.append("cholesky") or cholesky(a))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: calls.append("solve") or solve(a, b))
        _, iterations = svm._interior_point(gram, y)
        assert iterations > 0
        assert calls == ["cholesky"] * iterations

    def test_failed_factorisation_raises_and_restores_the_gram_matrix(
            self, monkeypatch):
        x, y = binary_problem(91, 40, 3, 0.3)
        gram = KernelSpec(SvmKernel.POLYNOMIAL).gram(x, x)
        before = gram.copy()
        calls = []
        cholesky = np.linalg.cholesky

        def second_fails(a):
            calls.append(a.shape)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", second_fails)
        with pytest.raises(NotPositiveDefinite):
            svm._interior_point(gram, y)
        assert calls == [gram.shape] * 2
        assert np.array_equal(gram, before)

    @pytest.mark.parametrize("factored", [False, True])
    def test_restore_repeats_its_shift_after_a_clip(self, factored):
        # machine 4 on FS6 fold 4 of the default panel, on rows scaled by
        # 1/sqrt(d): one equal shift of the free alphas, clipped back into
        # the box, left y'alpha at 1.2e-8, above the bound 4.5e-10
        panel = generate_panel(GeneratorConfig())
        dataset = build_dataset(panel, FeatureSelection.FS6)
        train = dataset.subset(stratified_folds(dataset, 10, seed=0)
                               .training_rows(4))
        x = numerics.standardizer_fit(train.x).apply(train.x) / math.sqrt(train.d)
        y = np.where(train.y == 4, 1.0, -1.0)
        model = interior_point_then_ascent(
            x, y, KernelSpec(SvmKernel.POLYNOMIAL), factored)
        assert model.ip_iterations > 0
        assert model.alpha.min() >= 0.0 and model.alpha.max() <= DEFAULT_COST
        assert abs(float(model.alpha @ y)) <= 1e-12 * DEFAULT_COST * y.size
        assert model.kkt_gap <= DEFAULT_KKT_TOL

    def test_interior_point_raises_at_its_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(svm, "_IP_MAX_ITERATIONS", 2)
        x, y = binary_problem(11, 12, 3, 1.0)
        with pytest.raises(NoConvergence):
            interior_point_then_ascent(x, y, KernelSpec(SvmKernel.LINEAR))

    def test_fallback_still_raises_at_the_update_cap(self, monkeypatch):
        # with no updates allowed and a tolerance no alpha meets, the
        # ascent after the interior point must give up as the plain one does
        monkeypatch.setattr(svm, "DEFAULT_MAX_UPDATES", 0)
        monkeypatch.setattr(svm, "DEFAULT_KKT_TOL", 0.0)
        train = make_blobs([[0.0, 0.0], [1.0, 1.0]], 10, scale=0.8, seed=63)
        with pytest.raises(NoConvergence):
            fit_svm_multiclass(train)

    def test_machines_through_the_feature_map_match_pairwise_ascent(self):
        # through the feature map, here the two standardised columns, both
        # linear machines take the interior point, and they end at the
        # optimum that pairwise ascent alone reaches, within the tolerance
        train = random_dataset(60, 2, 2, seed=0)
        model = fit_svm_multiclass(train, kernel=KernelSpec(SvmKernel.LINEAR))
        x = model.standardizer.apply(train.x)
        gram = model.machines[0].kernel.gram(x, x)
        assert svm._kernel_factor(model.machines[0].kernel, x) is x
        assert model.gram_rank == train.d == 2
        ascent = [fit_svm_binary(x, m.y_train, model.machines[0].kernel)
                  for m in model.machines]
        for machine, reference in zip(model.machines, ascent):
            assert machine.ip_iterations > 0
            assert machine.active_set_rounds == 0
            assert machine.kkt_gap <= DEFAULT_KKT_TOL
            y = machine.y_train
            assert abs(dual_objective(machine.alpha, gram, y)
                       - dual_objective(reference.alpha, gram, y)) <= 1e-6
            f_ip, f_ascent = decision(machine, x), decision(reference, x)
            assert np.abs(f_ip - f_ascent).max() <= 1e-3
            assert np.array_equal(np.sign(f_ip), np.sign(f_ascent))

    def test_fold_fit_that_stalls_pairwise_ascent_converges(self):
        # SVM-Linear on FS4 fold 0 of the default panel: under pairwise
        # ascent alone a machine stops at DEFAULT_MAX_UPDATES with a KKT
        # gap of 7.1e-4
        panel = generate_panel(GeneratorConfig())
        dataset = build_dataset(panel, FeatureSelection.FS4)
        plan = stratified_folds(dataset, 10, seed=0)
        train = dataset.subset(plan.training_rows(0))
        model = fit_svm_multiclass(train, kernel=KernelSpec(SvmKernel.LINEAR))
        assert all(m.kkt_gap <= DEFAULT_KKT_TOL for m in model.machines)
        # a linear fit: every machine takes the interior point
        assert all(m.ip_iterations > 0 for m in model.machines)
        summary = model.describe()
        assert summary["kkt_gap"] == max(m.kkt_gap for m in model.machines)
        assert summary["n_updates"] == sum(m.n_updates for m in model.machines)
        assert summary["ip_iterations"] == sum(m.ip_iterations
                                               for m in model.machines)
        assert summary["active_set_rounds"] == 0


def golden_fold(selection, fold):
    """A training fold of the 3-name x 30-day panel of test_golden.py."""
    panel = generate_panel(GeneratorConfig(n_counterparties=3, n_days=30, seed=0))
    dataset = build_dataset(panel, selection)
    return dataset.subset(stratified_folds(dataset, 2, seed=0).training_rows(fold))


def with_first_rows_repeated(train, count):
    """train with its first count rows appended again, as stale quotes
    repeat a name's row."""
    return Dataset(x=np.vstack([train.x, train.x[:count]]),
                   y=np.concatenate([train.y, train.y[:count]]),
                   class_names=train.class_names,
                   feature_names=train.feature_names)


def kkt_gap_from_alpha(alpha, y, gram, cost):
    """The maximal KKT violation of alpha, recomputed from K alone."""
    minus_yg = y - gram @ (y * alpha)
    eps = 1e-12 * cost
    up = np.where(y > 0, alpha < cost - eps, alpha > eps)
    low = np.where(y > 0, alpha > eps, alpha < cost - eps)
    return float(minus_yg[up].max() - minus_yg[low].min())


class TestFeatureMapFactor:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_polynomial_map_reproduces_the_gram_matrix(self, degree, d):
        # (1 + x'y)^p over the C(d + p, p) scaled monomials of degree <= p
        x = np.random.default_rng(80 + d).normal(size=(250, d))
        spec = KernelSpec(SvmKernel.POLYNOMIAL, degree=degree)
        gram = spec.gram(x, x)
        factor = svm._kernel_factor(spec, x)
        assert factor.shape == (250, math.comb(d + degree, degree))
        assert np.abs(factor @ factor.T - gram).max() <= 1e-12 * gram.max()

    def test_linear_map_is_the_rows(self):
        x, _ = binary_problem(81, 60, 4, 0.5)
        spec = KernelSpec(SvmKernel.LINEAR)
        factor = svm._kernel_factor(spec, x)
        assert factor.shape == (120, 4)
        assert np.array_equal(factor @ factor.T, spec.gram(x, x))

    @pytest.mark.parametrize("kind,d", [(SvmKernel.LINEAR, 4),
                                        (SvmKernel.LINEAR, 8),
                                        (SvmKernel.POLYNOMIAL, 2),
                                        (SvmKernel.POLYNOMIAL, 4)])
    @pytest.mark.parametrize("seed,n_per_side,separation", [(82, 30, 0.2),
                                                            (83, 60, 0.5),
                                                            (84, 100, 1.0)])
    def test_factored_solve_matches_the_dense_one(self, kind, d, seed,
                                                  n_per_side, separation):
        x, y = binary_problem(seed, n_per_side, d, separation)
        spec = KernelSpec(kind).resolve(d)
        gram = spec.gram(x, x)
        factor = svm._kernel_factor(spec, x)
        assert factor is not None
        dense, dense_iterations = svm._interior_point(gram, y)
        alpha, iterations = svm._interior_point(gram, y, factor)
        assert iterations == dense_iterations
        assert np.array_equal(alpha == 0.0, dense == 0.0)
        assert np.array_equal(alpha == DEFAULT_COST, dense == DEFAULT_COST)
        assert np.abs(alpha - dense).max() <= 1e-6 * DEFAULT_COST

    def test_dense_solve_leaves_the_gram_matrix_as_it_was(self):
        x, y = binary_problem(85, 20, 3, 0.3)
        gram = KernelSpec(SvmKernel.GAUSSIAN).resolve(3).gram(x, x)
        kept = gram.copy()
        svm._interior_point(gram, y)
        assert np.array_equal(gram, kept)

    def test_large_maps_take_the_dense_solve(self, monkeypatch):
        rng = np.random.default_rng(86)

        def no_monomials(*args):
            raise AssertionError("a map as wide as the rows was built")

        # C(16 + 3, 3) = 969 and C(15 + 3, 3) = 816 monomials for 450
        # rows, FS1 and FS4 of the study: r is counted, no column is built
        monkeypatch.setattr(itertools, "combinations_with_replacement",
                            no_monomials)
        for d in (16, 15):
            x = rng.normal(size=(450, d))
            assert svm._kernel_factor(KernelSpec(SvmKernel.POLYNOMIAL), x) is None

    def test_factor_only_with_fewer_columns_than_rows(self):
        # a factor only while r < n: at n = 6, r = 5 but not r = 6
        x = np.random.default_rng(88).normal(size=(11, 6))
        linear = KernelSpec(SvmKernel.LINEAR)
        assert svm._kernel_factor(linear, x[:6, :5]).shape == (6, 5)
        assert svm._kernel_factor(linear, x[:6]) is None
        # d = 2, p = 3, r = 10: none at n = 10, one at n = 11
        poly = KernelSpec(SvmKernel.POLYNOMIAL)
        assert svm._kernel_factor(poly, x[:10, :2]) is None
        assert svm._kernel_factor(poly, x[:, :2]).shape == (11, 10)

    def test_factor_made_once_per_fit_before_any_solve(self, monkeypatch):
        calls = []

        def counted(kernel, x):
            calls.append(x.shape)
            return factor(kernel, x)

        factor = svm._kernel_factor
        monkeypatch.setattr(svm, "_kernel_factor", counted)
        # every one of the three machines goes through the 20 monomials
        model = fit_svm_multiclass(random_dataset(90, 3, 3, seed=1),
                                   kernel=KernelSpec(SvmKernel.POLYNOMIAL))
        assert all(m.ip_iterations > 0 for m in model.machines)
        assert calls == [(90, 3)]
        calls.clear()
        # a gaussian fit runs pairwise ascent alone and makes no factor
        model = fit_svm_multiclass(make_blobs([[0.0, 0.0], [4.0, 4.0]], 10,
                                              scale=0.5, seed=87),
                                   kernel=KernelSpec(SvmKernel.GAUSSIAN))
        assert all(m.ip_iterations == 0 for m in model.machines)
        assert calls == []

    @pytest.mark.parametrize("kind,selection", [
        pytest.param(SvmKernel.LINEAR, None, id="linear"),
        pytest.param(SvmKernel.POLYNOMIAL, None, id="polynomial"),
        pytest.param(SvmKernel.POLYNOMIAL, FeatureSelection.FS1,
                     id="polynomial-FS1"),
        pytest.param(SvmKernel.POLYNOMIAL, FeatureSelection.FS4,
                     id="polynomial-FS4")])
    def test_routed_fit_warm_starts_each_ascent_and_makes_no_eigendecomposition(
            self, monkeypatch, kind, selection):
        # on FS1 and FS4, 969 and 816 monomials for 45 rows: no factor, so
        # every machine takes the dense active set; the others take the
        # interior point through the feature map. Each machine then makes
        # one ascent, from the alpha its solve returned
        train = (random_dataset(90, 3, 3, seed=1) if selection is None
                 else golden_fold(selection, 0))
        calls = []
        fit = svm.fit_svm_binary

        def recorded_fit(*args, **kwargs):
            calls.append(("ascent", kwargs["alpha"]))
            return fit(*args, **kwargs)

        def recorded(solver):
            def solve(*args):
                alpha, count = solver(*args)
                calls.append(("solve", alpha))
                return alpha, count
            return solve

        monkeypatch.setattr(svm, "fit_svm_binary", recorded_fit)
        for name in ("_interior_point", "_active_set"):
            monkeypatch.setattr(svm, name, recorded(getattr(svm, name)))
        monkeypatch.setattr(svm.nm, "eigen_symmetric",
                            lambda *args: calls.append(("eigen", None)))
        model = fit_svm_multiclass(train, kernel=KernelSpec(kind))
        assert [call for call, _ in calls] == ["solve", "ascent"] * train.n_classes
        for (_, solved), (_, start), machine in zip(calls[::2], calls[1::2],
                                                    model.machines):
            assert start is solved is machine.alpha
        if selection is None:
            assert all(m.ip_iterations > 0 for m in model.machines)
            assert all(m.active_set_rounds == 0 for m in model.machines)
        else:
            assert model.gram_rank == train.n
            assert all(m.ip_iterations == 0 for m in model.machines)
            assert all(m.active_set_rounds > 0 for m in model.machines)

    def test_only_gaussian_machines_run_the_ascent_alone(self, monkeypatch):
        train = golden_fold(FeatureSelection.FS1, 0)
        ascents, solves = [], []

        def recorded_ascent(*args, **kwargs):
            ascents.append((args[2].kind, sorted(kwargs), kwargs["alpha"] is None))
            return fit(*args, **kwargs)

        def recorded(solver):
            def solve(*args):
                solves.append((solver.__name__, kind))
                return solver(*args)
            return solve

        fit = svm.fit_svm_binary
        monkeypatch.setattr(svm, "fit_svm_binary", recorded_ascent)
        for name in ("_interior_point", "_active_set"):
            monkeypatch.setattr(svm, name, recorded(getattr(svm, name)))
        for kind in SvmKernel:
            fit_svm_multiclass(train, kernel=KernelSpec(kind))
        # one ascent per machine on the shared Gram matrix: from 0 per
        # gaussian machine, capped at DEFAULT_MAX_UPDATES; per linear
        # machine from one interior point through the 16 columns, and per
        # polynomial machine from one dense active set, 969 monomials being
        # more than the 45 rows
        assert ascents == [(kind, ["alpha", "gram"], kind is SvmKernel.GAUSSIAN)
                           for kind in SvmKernel for _ in range(train.n_classes)]
        assert sorted(solves) == sorted(
            [("_interior_point", SvmKernel.LINEAR),
             ("_active_set", SvmKernel.POLYNOMIAL)] * train.n_classes)

    @pytest.mark.parametrize("selection,kind,rank", [
        (FeatureSelection.FS1, SvmKernel.LINEAR, 16),
        (FeatureSelection.FS2, SvmKernel.LINEAR, 4),
        (FeatureSelection.FS3, SvmKernel.LINEAR, 2),
        (FeatureSelection.FS4, SvmKernel.LINEAR, 15),
        (FeatureSelection.FS5, SvmKernel.LINEAR, 3),
        (FeatureSelection.FS6, SvmKernel.LINEAR, 2),
        # 35 monomials for the golden fold's 45 rows: through the map
        (FeatureSelection.FS2, SvmKernel.POLYNOMIAL, 35),
        (FeatureSelection.FS3, SvmKernel.POLYNOMIAL, 10),
        (FeatureSelection.FS5, SvmKernel.POLYNOMIAL, 20),
        (FeatureSelection.FS6, SvmKernel.POLYNOMIAL, 10)])
    def test_routed_machines_meet_the_kkt_conditions(self, selection, kind,
                                                     rank):
        train = golden_fold(selection, 0)
        model = fit_svm_multiclass(train, kernel=KernelSpec(kind))
        assert model.gram_rank == rank
        x = model.standardizer.apply(train.x)
        gram = model.machines[0].kernel.gram(x, x)
        for machine in model.machines:
            alpha, y = machine.alpha, machine.y_train
            assert machine.ip_iterations > 0
            assert kkt_gap_from_alpha(alpha, y, gram, DEFAULT_COST) <= DEFAULT_KKT_TOL
            assert alpha.min() >= 0.0 and alpha.max() <= DEFAULT_COST
            assert abs(float(y @ alpha)) <= 1e-12 * DEFAULT_COST * y.size

    @pytest.mark.parametrize("train", [
        pytest.param(make_blobs([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], 15,
                                scale=0.8, seed=89), id="blobs"),
        # machine 1 needs 825 updates, more than 10 n
        pytest.param(random_dataset(60, 2, 3, seed=6), id="over-10n")])
    def test_gaussian_fit_keeps_the_ascent_machines_bit_for_bit(self, train):
        model = fit_svm_multiclass(train, kernel=KernelSpec(SvmKernel.GAUSSIAN))
        x = model.standardizer.apply(train.x)
        for j, machine in enumerate(model.machines):
            y = np.where(train.y == j, 1.0, -1.0)
            ascent = fit_svm_binary(x, y, model.machines[0].kernel)
            assert machine.ip_iterations == 0
            assert np.array_equal(machine.alpha, ascent.alpha)
            assert machine.bias == ascent.bias
            assert machine.n_updates == ascent.n_updates
            assert machine.kkt_gap == ascent.kkt_gap

    @pytest.mark.parametrize("case", ["permuted-rows", "date-fold"])
    def test_gaussian_fold_on_a_near_singular_gram_converges(self, case):
        # SVM-Gaussian on FS6 of the default panel, whose two columns lie
        # near a curve: the Gram matrix is numerically singular, and the
        # dense interior point cannot stop on these folds, so every machine
        # must converge by pairwise ascent alone
        panel = generate_panel(GeneratorConfig())
        dataset = build_dataset(panel, FeatureSelection.FS6)
        if case == "permuted-rows":
            rows = stratified_folds(dataset, 10, seed=0).training_rows(1)
            rows = rows[np.random.default_rng(2).permutation(rows.size)]
        else:
            # ten folds of ten consecutive days each; fold 9 holds the last
            day = np.tile(np.arange(100), 5)
            plan = FoldPlan(k=10, assignment=day * 10 // 100)
            rows = plan.training_rows(9)
        assert rows.size == 450
        model = fit_svm_multiclass(dataset.subset(rows),
                                   kernel=KernelSpec(SvmKernel.GAUSSIAN))
        for machine in model.machines:
            assert machine.ip_iterations == 0
            assert machine.kkt_gap <= DEFAULT_KKT_TOL

    def test_describe_reports_the_rank_the_interior_point_used(self):
        blobs = make_blobs([[0.0, 0.0], [4.0, 4.0]], 10, scale=0.5, seed=87)
        gaussian = fit_svm_multiclass(blobs, kernel=KernelSpec(SvmKernel.GAUSSIAN))
        assert gaussian.describe()["gram_rank"] == 0
        assert fit_svm_multiclass(blobs).describe()["gram_rank"] == 2
        low = fit_svm_multiclass(random_dataset(90, 3, 3, seed=1),
                                 kernel=KernelSpec(SvmKernel.POLYNOMIAL))
        assert low.describe()["gram_rank"] == 20
        # SVM-Poly on FS1: 969 monomials for 45 rows, so every machine
        # takes the dense active set
        train = golden_fold(FeatureSelection.FS1, 0)
        dense = fit_svm_multiclass(train, kernel=KernelSpec(SvmKernel.POLYNOMIAL))
        summary = dense.describe()
        assert summary["gram_rank"] == train.n == 45
        assert summary["ip_iterations"] == 0
        assert summary["active_set_rounds"] == sum(
            m.active_set_rounds for m in dense.machines) > 0


class TestActiveSet:
    def test_matches_projected_gradient_reference(self):
        # d = 5, p = 3: 56 monomials for 40 rows, so K has full rank; the
        # optimum has 24 free alphas and one at C
        x, y = binary_problem(30, 20, 5, 0.3)
        gram = KernelSpec(SvmKernel.POLYNOMIAL).gram(x, x)
        kept = gram.copy()
        alpha, rounds = svm._active_set(gram, y)
        assert np.array_equal(gram, kept)
        assert 1 < rounds < svm._AS_MAX_ROUNDS
        assert alpha.min() >= 0.0 and alpha.max() <= DEFAULT_COST
        assert abs(float(alpha @ y)) <= 1e-12 * DEFAULT_COST * y.size
        assert kkt_gap_from_alpha(alpha, y, gram, DEFAULT_COST) <= DEFAULT_KKT_TOL
        w_ref = dual_objective(reference_dual_solution(gram, y, DEFAULT_COST),
                               gram, y)
        assert abs(dual_objective(alpha, gram, y) - w_ref) <= 1e-6 * max(
            1.0, abs(w_ref))

    def test_study_fold_takes_no_interior_point(self, monkeypatch):
        # SVM-Poly on FS1 fold 0 of the default panel: 969 monomials for
        # 450 rows, and K has full rank
        panel = generate_panel(GeneratorConfig())
        dataset = build_dataset(panel, FeatureSelection.FS1)
        train = dataset.subset(stratified_folds(dataset, 10, seed=0)
                               .training_rows(0))

        def no_interior_point(*args):
            raise AssertionError("a machine reached the interior point")

        monkeypatch.setattr(svm, "_interior_point", no_interior_point)
        model = fit_svm_multiclass(train, kernel=KernelSpec(SvmKernel.POLYNOMIAL))
        assert model.gram_rank == train.n == 450
        for machine in model.machines:
            assert machine.ip_iterations == 0
            assert 0 < machine.active_set_rounds < svm._AS_MAX_ROUNDS
            assert machine.kkt_gap <= DEFAULT_KKT_TOL
            # the sets were right: the ascent's check needs no update
            assert machine.n_updates == 0

    def test_duplicated_rows_fall_back_to_the_dense_interior_point(self):
        # SVM-Poly on FS1 fold 0 of the default panel with its first five
        # training rows repeated, as stale quotes repeat a name's row: K is
        # singular, the first Cholesky of K_FF fails on every machine, and
        # the dense interior point solves each in 15-18 iterations
        panel = generate_panel(GeneratorConfig())
        dataset = build_dataset(panel, FeatureSelection.FS1)
        train = dataset.subset(stratified_folds(dataset, 10, seed=0)
                               .training_rows(0))
        train = with_first_rows_repeated(train, 5)
        model = fit_svm_multiclass(train, kernel=KernelSpec(SvmKernel.POLYNOMIAL))
        assert model.gram_rank == train.n == 455
        x = model.standardizer.apply(train.x)
        gram = model.machines[0].kernel.gram(x, x)
        for machine in model.machines:
            alpha, y = machine.alpha, machine.y_train
            with pytest.raises(NotPositiveDefinite):
                svm._active_set(gram, y)
            assert machine.active_set_rounds == 0
            assert machine.ip_iterations > 0
            assert machine.kkt_gap <= DEFAULT_KKT_TOL
            assert kkt_gap_from_alpha(alpha, y, gram, DEFAULT_COST) <= DEFAULT_KKT_TOL
            assert alpha.min() >= 0.0 and alpha.max() <= DEFAULT_COST
            assert abs(float(y @ alpha)) <= 1e-12 * DEFAULT_COST * y.size

    def test_repeated_sets_hand_over_to_the_interior_point_at_once(
            self, monkeypatch):
        # SVM-Poly on FS1 fold 0 of the default panel with training row 0
        # repeated at the end. On one BLAS thread the sets that round 31 of
        # machine 0 leaves come back after round 55, and the other
        # machines settle in 20-53 rounds; the rounding of other thread
        # counts can make other machines cycle too. A machine that cycles
        # gets the dense interior point's alpha, as it did after all
        # _AS_MAX_ROUNDS rounds.
        panel = generate_panel(GeneratorConfig())
        dataset = build_dataset(panel, FeatureSelection.FS1)
        train = dataset.subset(stratified_folds(dataset, 10, seed=0)
                               .training_rows(0))
        train = with_first_rows_repeated(train, 1)
        model = fit_svm_multiclass(train, kernel=KernelSpec(SvmKernel.POLYNOMIAL))
        x = model.standardizer.apply(train.x)
        gram = model.machines[0].kernel.gram(x, x)
        solves = []
        spd_solver = numerics.spd_solver
        monkeypatch.setattr(numerics, "spd_solver", lambda k_mat, what: (
            solves.append(1) or spd_solver(k_mat, what)))
        for j, machine in enumerate(model.machines):
            y = machine.y_train
            solves.clear()
            try:
                _, rounds = svm._active_set(gram, y)
            except NoConvergence as exc:
                assert "repeat" in str(exc)
                rounds = None
            if j == 0:
                assert rounds is None and len(solves) <= 56
            if rounds is not None:
                assert machine.active_set_rounds == rounds
                assert machine.ip_iterations == 0
                continue
            want = interior_point_then_ascent(x, y, model.machines[0].kernel)
            assert machine.active_set_rounds == 0
            assert machine.ip_iterations == want.ip_iterations > 0
            assert np.array_equal(machine.alpha, want.alpha)
            assert machine.bias == want.bias
            assert machine.n_updates == want.n_updates
            assert machine.kkt_gap == want.kkt_gap

    @pytest.mark.parametrize("fold", [0, 1])
    def test_maps_with_fewer_columns_than_rows_skip_the_active_set(
            self, monkeypatch, fold):
        # 35 monomials for the 45 rows of each golden FS2 fold: K has rank
        # 35 at most, so every machine takes the interior point through
        # the map, and no dense Cholesky is tried
        train = golden_fold(FeatureSelection.FS2, fold)
        calls = []
        spd_solver = numerics.spd_solver
        monkeypatch.setattr(numerics, "spd_solver", lambda k_mat, what: (
            calls.append(k_mat.shape) or spd_solver(k_mat, what)))
        model = fit_svm_multiclass(train, kernel=KernelSpec(SvmKernel.POLYNOMIAL))
        assert calls == []
        assert model.gram_rank == 35 < train.n == 45
        x = model.standardizer.apply(train.x)
        for machine in model.machines:
            want = interior_point_then_ascent(x, machine.y_train,
                                              model.machines[0].kernel,
                                              factored=True)
            assert machine.active_set_rounds == 0
            assert machine.ip_iterations == want.ip_iterations > 0
            assert np.array_equal(machine.alpha, want.alpha)
            assert machine.bias == want.bias
            assert machine.n_updates == want.n_updates
            assert machine.kkt_gap == want.kkt_gap

    @pytest.mark.parametrize("repeated,cap,error", [
        # the first 5 rows again: K is singular, and so is the first
        # Cholesky of K_FF, with every index free
        pytest.param(5, svm._AS_MAX_ROUNDS, NotPositiveDefinite,
                     id="FS1-repeated-rows"),
        # the sets of these machines settle in 5-9 rounds, not in 1
        pytest.param(0, 1, NoConvergence, id="FS1-capped")])
    def test_fallback_machines_equal_the_interior_point_bit_for_bit(
            self, monkeypatch, repeated, cap, error):
        train = with_first_rows_repeated(golden_fold(FeatureSelection.FS1, 0),
                                         repeated)
        monkeypatch.setattr(svm, "_AS_MAX_ROUNDS", cap)
        model = fit_svm_multiclass(train, kernel=KernelSpec(SvmKernel.POLYNOMIAL))
        assert model.gram_rank == train.n
        summary = model.describe()
        assert summary["active_set_rounds"] == 0 < summary["ip_iterations"]
        x = model.standardizer.apply(train.x)
        gram = model.machines[0].kernel.gram(x, x)
        for machine in model.machines:
            y = machine.y_train
            with pytest.raises(error):
                svm._active_set(gram, y)
            want = interior_point_then_ascent(x, y, model.machines[0].kernel)
            assert machine.active_set_rounds == 0
            assert machine.ip_iterations == want.ip_iterations > 0
            assert np.array_equal(machine.alpha, want.alpha)
            assert machine.bias == want.bias
            assert machine.n_updates == want.n_updates
            assert machine.kkt_gap == want.kkt_gap


class TestMulticlass:
    def test_one_vs_rest_two_classes_matches_binary(self):
        train = make_blobs([[0.0, 0.0], [3.0, 3.0]], 10, scale=0.6, seed=61)
        model = fit_svm_multiclass(train)
        scale = model.standardizer.apply
        spec = KernelSpec(SvmKernel.LINEAR)
        y_pm = np.where(train.y == 0, 1.0, -1.0)
        binary = fit_svm_binary(scale(train.x), y_pm, spec)
        queries = np.random.default_rng(62).normal(size=(30, 2)) * 2 + 1.5
        dec = decision(binary, scale(queries))
        got = model.classify_batch(queries)
        want = np.where(dec > 0, 0, 1)
        both = model.scores_batch(queries)
        assert np.allclose(both[:, 0], -both[:, 1], atol=1e-9)
        assert np.array_equal(got[np.abs(dec) > 1e-9], want[np.abs(dec) > 1e-9])

    def test_three_class_blobs_high_accuracy(self):
        train = make_blobs([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], 15,
                           scale=0.5, seed=65)
        model = fit_svm_multiclass(train)
        acc = float(np.mean(model.classify_batch(train.x) == train.y))
        assert acc >= 0.95

    @pytest.mark.parametrize("kind", [SvmKernel.LINEAR, SvmKernel.GAUSSIAN])
    def test_scores_are_one_vs_rest_decision_columns(self, kind):
        # column j is machine j's decision: class j against the other three,
        # trained and queried on the model's standardised rows; a linear
        # machine is the interior point through the rows, polished by
        # ascent, a gaussian one the plain ascent. The columns come from one
        # Gram block of the queries against the shared rows
        train = make_blobs([[0.0], [2.0], [4.0], [6.0]], 6, scale=0.2, seed=66)
        model = fit_svm_multiclass(train, kernel=KernelSpec(kind))
        assert len(model.machines) == train.n_classes
        scale = model.standardizer.apply
        x = scale(train.x)
        kernel = KernelSpec(kind).resolve(train.d)
        queries = np.random.default_rng(67).normal(size=(25, 1)) * 3 + 3
        scores = model.scores_batch(queries)
        assert scores.shape == (25, train.n_classes)
        references = []
        for j, machine in enumerate(model.machines):
            y_pm = np.where(train.y == j, 1.0, -1.0)
            if kind is SvmKernel.LINEAR:
                reference = interior_point_then_ascent(x, y_pm, kernel, factored=True)
            else:
                reference = fit_svm_binary(x, y_pm, kernel)
            assert np.array_equal(machine.alpha, reference.alpha)
            assert machine.bias == reference.bias
            assert np.array_equal(machine.x_train, x)
            assert np.array_equal(machine.y_train, y_pm)
            references.append(reference)
        coef = np.column_stack([r.alpha * r.y_train for r in references])
        bias = np.array([r.bias for r in references])
        assert np.array_equal(scores, kernel.gram(scale(queries), x) @ coef + bias)

    @pytest.mark.parametrize("kind", list(SvmKernel))
    def test_one_product_matches_the_per_machine_support_vector_sums(self, kind):
        # FS1 fold 0 of the default panel: the product over every row moves
        # each score by rounding alone from the sum over that machine's
        # support vectors, and no class on a row that is not a near-tie
        panel = generate_panel(GeneratorConfig())
        dataset = build_dataset(panel, FeatureSelection.FS1)
        plan = stratified_folds(dataset, 10, seed=0)
        train = dataset.subset(plan.training_rows(0))
        queries = dataset.x[plan.holdout_rows(0)]
        model = fit_svm_multiclass(train, kernel=KernelSpec(kind))
        q = model.standardizer.apply(queries)
        want = np.column_stack([decision(m, q) for m in model.machines])
        got = model.scores_batch(queries)
        assert np.abs(got - want).max() <= 1e-8
        top_two = np.sort(want, axis=1)[:, -2:]
        clear = top_two[:, 1] - top_two[:, 0] > 1e-6
        assert clear.mean() > 0.5
        assert np.array_equal(model.classify_batch(queries)[clear],
                              want.argmax(axis=1)[clear])

    def test_kinds_given_as_strings_fit_and_score_as_their_enums(self):
        train = make_blobs([[0.0, 0.0], [2.0, 1.0], [0.0, 2.0]], 8, scale=0.6,
                           seed=70)
        queries = np.random.default_rng(71).normal(size=(15, 2))
        for kind in SvmKernel:
            spec = KernelSpec(kind.value)
            assert spec.kind is kind
            a = fit_svm_multiclass(train, kernel=spec)
            b = fit_svm_multiclass(train, kernel=KernelSpec(kind))
            assert a.machines[0].kernel == b.machines[0].kernel
            for ma, mb in zip(a.machines, b.machines):
                assert np.array_equal(ma.alpha, mb.alpha) and ma.bias == mb.bias
            assert np.array_equal(a.scores_batch(queries), b.scores_batch(queries))

    def test_standardization_default_makes_scaling_irrelevant(self):
        train = make_blobs([[0.0, 0.0], [2.0, 1.0]], 12, scale=0.5, seed=68)
        scaled = Dataset(x=train.x * np.array([1000.0, 0.01]), y=train.y,
                         class_names=train.class_names,
                         feature_names=train.feature_names)
        a = fit_svm_multiclass(train, kernel=KernelSpec(SvmKernel.GAUSSIAN))
        b = fit_svm_multiclass(scaled, kernel=KernelSpec(SvmKernel.GAUSSIAN))
        queries = np.random.default_rng(69).normal(size=(20, 2))
        assert np.array_equal(a.classify_batch(queries),
                              b.classify_batch(queries * np.array([1000.0, 0.01])))

    def test_single_class_rejected(self):
        train = Dataset(x=np.ones((5, 2)), y=np.zeros(5, dtype=int),
                        class_names=("only",), feature_names=("a", "b"))
        with pytest.raises(EmptyClass, match="training data holds a single class"):
            fit_svm_multiclass(train)
