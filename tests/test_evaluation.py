"""Fold planning, cross-validation statistics, ranking, PCA and correlation
studies.

Fold invariants are checked exhaustively over a grid of (class sizes, K)
shapes; the CV statistics are checked against exact rational cases (a
constant predictor on balanced folds) and against reconstruction from the
stored per-fold errors.
"""
import json
import math

import numpy as np
import pytest

from cdsproxy.neighbors import fit_knn
from cdsproxy.trees import fit_bagged
from cdsproxy.core import ClassifierModel, Dataset, FeatureSelection, build_dataset
from cdsproxy.datagen import GeneratorConfig, generate_panel
from cdsproxy.errors import (
    BadConfig,
    DimensionMismatch,
    EmptyClass,
    FitFailure,
    MissingCell,
    NotPositiveDefinite,
    SchemaViolation,
    TooFewSamples,
)
from cdsproxy.evaluation import (
    DEFAULT_FOLDS,
    DEFAULT_GRID,
    ClassifierSpec,
    CvResult,
    correlation_histogram,
    cross_validate,
    fold_seed,
    make_classifier_spec,
    pca_study,
    rank_classifiers,
    render_csv,
    render_cv_csv,
    render_family_csv,
    render_histogram_csv,
    render_pca_csv,
    render_ranking_csv,
    stratified_folds,
    summarize_errors,
)

import loop_reference as ref
from conftest import identical_rows, make_blobs


@pytest.fixture(scope="module")
def golden_fs2_fold():
    """The FS2 training rows of fold 0 of test_golden.py's grid."""
    panel = generate_panel(GeneratorConfig(n_counterparties=3, n_days=30, seed=0))
    dataset = build_dataset(panel, FeatureSelection.FS2)
    return dataset.subset(stratified_folds(dataset, 2, seed=0).training_rows(0))


def label_dataset(y, n_classes, d=2, seed=0):
    """Dataset with given labels and arbitrary features."""
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    return Dataset(x=rng.normal(size=(y.size, d)), y=y,
                   class_names=tuple(f"c{i}" for i in range(n_classes)),
                   feature_names=tuple(f"f{i}" for i in range(d)))


class ConstantModel(ClassifierModel):
    """Always predicts class 0."""

    def __init__(self, n_classes):
        self.n_classes = n_classes

    def scores_batch(self, x):
        out = np.zeros((len(x), self.n_classes))
        out[:, 0] = 1.0
        return out


def constant_spec():
    return ClassifierSpec(
        label="Constant", family="probe",
        fitter=lambda train, seed: ConstantModel(train.n_classes))


class TestStratifiedFolds:
    def test_balanced_thirty_in_ten_folds_one_per_class_per_fold(self):
        ds = label_dataset([0] * 10 + [1] * 10 + [2] * 10, 3)
        plan = stratified_folds(ds, 10, seed=5)
        for fold in range(10):
            rows = plan.holdout_rows(fold)
            assert rows.size == 3
            assert sorted(ds.y[rows]) == [0, 1, 2]

    def test_leave_one_out_when_k_equals_n(self):
        ds = label_dataset([0, 0, 1, 1, 2, 2], 3)
        plan = stratified_folds(ds, 6, seed=1)
        sizes = np.bincount(plan.assignment, minlength=6)
        assert np.all(sizes == 1)

    @pytest.mark.parametrize("counts", [
        (5, 5), (7, 3), (9, 4, 2), (11, 11, 11), (6, 5, 4, 3), (13, 2),
        (20, 1, 1),
    ])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_partition_and_balance_invariants(self, counts, k):
        y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
        ds = label_dataset(y, len(counts), seed=3)
        if k > ds.n:
            pytest.skip("k exceeds n")
        plan = stratified_folds(ds, k, seed=17)
        # partition: every row assigned to exactly one fold
        assert np.all((plan.assignment >= 0) & (plan.assignment < k))
        all_rows = np.concatenate([plan.holdout_rows(f) for f in range(k)])
        assert sorted(all_rows) == list(range(ds.n))
        # fold sizes differ by at most one
        sizes = np.bincount(plan.assignment, minlength=k)
        assert sizes.max() - sizes.min() <= 1
        # per-class fold counts differ by at most one
        for j in range(ds.n_classes):
            per_fold = np.bincount(plan.assignment[ds.y == j], minlength=k)
            assert per_fold.max() - per_fold.min() <= 1

    def test_training_and_holdout_rows_partition_each_fold(self):
        ds = label_dataset([0] * 8 + [1] * 7, 2)
        plan = stratified_folds(ds, 4, seed=2)
        for fold in range(4):
            tr = set(plan.training_rows(fold).tolist())
            ho = set(plan.holdout_rows(fold).tolist())
            assert tr & ho == set()
            assert tr | ho == set(range(ds.n))

    def test_bad_fold_counts_rejected(self):
        ds = label_dataset([0, 0, 1, 1], 2)
        with pytest.raises(BadConfig, match="fold count must satisfy 2 <= K <= 4, got 1"):
            stratified_folds(ds, 1)
        with pytest.raises(BadConfig, match="fold count must satisfy 2 <= K <= 4, got 5"):
            stratified_folds(ds, 5)

    def test_class_without_samples_rejected(self):
        ds = label_dataset([0, 0, 1, 1], 3)  # class c2 never appears
        with pytest.raises(EmptyClass):
            stratified_folds(ds, 2)

    def test_same_seed_reproduces_plan_different_seed_moves_rows(self):
        ds = label_dataset([0] * 12 + [1] * 12, 2)
        a = stratified_folds(ds, 4, seed=9)
        b = stratified_folds(ds, 4, seed=9)
        c = stratified_folds(ds, 4, seed=10)
        assert np.array_equal(a.assignment, b.assignment)
        assert not np.array_equal(a.assignment, c.assignment)

    @pytest.mark.parametrize("counts", [
        (5, 5), (7, 3), (9, 4, 2), (1, 1, 6), (3, 2, 1, 4), (2, 13),
    ])
    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_assignment_matches_the_row_by_row_deal(self, counts, k, seed):
        y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
        y = np.random.default_rng(seed + 1).permutation(y)
        ds = label_dataset(y, len(counts))
        if k > ds.n:
            pytest.skip("k exceeds n")
        assert np.array_equal(stratified_folds(ds, k, seed).assignment,
                              ref.stratified_folds(ds, k, seed).assignment)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_generated_panel_plans_match_the_row_by_row_deal(self, seed):
        panel = generate_panel(GeneratorConfig(seed=seed))
        for selection in FeatureSelection:
            ds = build_dataset(panel, selection)
            assert np.array_equal(
                stratified_folds(ds, DEFAULT_FOLDS, seed).assignment,
                ref.stratified_folds(ds, DEFAULT_FOLDS, seed).assignment)


class TestCvStatistics:
    def test_constant_predictor_on_balanced_three_classes_is_exactly_two_thirds(self):
        # 24 samples, 8 per class, K = 8: every fold holds one sample of
        # each class, so each fold error is exactly 2/3 and the mean and
        # population sd come out exact in floating point.
        ds = label_dataset([0] * 8 + [1] * 8 + [2] * 8, 3)
        res = cross_validate(constant_spec(), ds, k=8, seed=4)
        assert all(e == 2.0 / 3.0 for e in res.fold_errors)
        assert res.mean_error == 2.0 / 3.0
        assert res.sd_error == 0.0
        assert res.accuracy == 1.0 - 2.0 / 3.0

    def test_mean_and_sd_reconstruct_from_stored_fold_errors(self, blob3):
        spec = make_classifier_spec("LDA-FullCov")
        res = cross_validate(spec, blob3, k=5, seed=11)
        mean = math.fsum(res.fold_errors) / len(res.fold_errors)
        var = math.fsum((e - mean) ** 2 for e in res.fold_errors) / len(res.fold_errors)
        assert abs(res.mean_error - mean) <= 1e-12
        assert abs(res.sd_error - math.sqrt(var)) <= 1e-12

    def test_population_sd_convention(self):
        mean, sd = summarize_errors([0.0, 1.0])
        assert mean == 0.5
        assert sd == 0.5  # population: sqrt(((0.5)^2 + (0.5)^2) / 2)

    def test_no_errors_rejected(self):
        with pytest.raises(BadConfig, match="empty sequence of errors"):
            summarize_errors([])

    def test_stochastic_learners_replay_bit_identically(self, blob3):
        spec = ClassifierSpec(
            label="BaggedTree", family="BaggedTree",
            fitter=lambda train, seed: fit_bagged(train, n_trees=5, seed=seed))
        a = cross_validate(spec, blob3, k=5, seed=3)
        b = cross_validate(spec, blob3, k=5, seed=3)
        assert a == b

    def test_fold_seeds_are_distinct_across_folds_and_runs(self):
        seeds = {fold_seed(s, f) for s in range(20) for f in range(20)}
        assert len(seeds) == 400

    def test_holdout_rows_never_reach_the_fit(self, blob3):
        seen: list[np.ndarray] = []

        def probe_fitter(train, seed):
            seen.append(train.x.copy())
            return ConstantModel(train.n_classes)

        spec = ClassifierSpec(label="Probe", family="probe",
                              fitter=probe_fitter)
        plan = stratified_folds(blob3, 5, seed=7)
        cross_validate(spec, blob3, k=5, seed=7)
        for fold, train_x in enumerate(seen):
            holdout = blob3.x[plan.holdout_rows(fold)]
            expected = blob3.x[plan.training_rows(fold)]
            assert np.array_equal(train_x, expected)
            # no holdout row appears among the fit inputs
            for row in holdout:
                assert not np.any(np.all(train_x == row, axis=1))

    def test_fit_failure_reports_fold_index(self, blob3):
        def failing_fitter(train, seed):
            raise EmptyClass("boom")

        spec = ClassifierSpec(label="Broken", family="probe",
                              fitter=failing_fitter)
        with pytest.raises(FitFailure, match="fold 0"):
            cross_validate(spec, blob3, k=5, seed=0)

    def test_fit_failure_names_label_selection_and_fold(self, blob3):
        def failing_fitter(train, seed):
            raise EmptyClass("boom")

        ds = Dataset(x=blob3.x, y=blob3.y, class_names=blob3.class_names,
                     feature_names=blob3.feature_names,
                     selection=FeatureSelection.FS2)
        spec = ClassifierSpec(label="Broken", family="probe",
                              fitter=failing_fitter)
        for run in (lambda: cross_validate(spec, ds, k=5, seed=0),
                    lambda: pca_study(spec, ds, k=5, seed=0)):
            with pytest.raises(FitFailure) as caught:
                run()
            message = str(caught.value)
            assert "Broken" in message
            assert "FS2" in message
            assert "fold 0" in message

    def test_singular_fold_fit_keeps_its_cause(self):
        with pytest.raises(FitFailure, match="LDA-FullCov on FS5 fold 0: ") as caught:
            cross_validate(make_classifier_spec("LDA-FullCov"), identical_rows(), k=2)
        assert isinstance(caught.value.__cause__, NotPositiveDefinite)

    def test_separable_blobs_are_nearly_perfect_for_lda(self):
        ds = make_blobs(centers=[(0, 0), (8, 8), (-8, 8)], n_per_class=15,
                        scale=0.5, seed=21)
        res = cross_validate(make_classifier_spec("LDA-FullCov"), ds,
                             k=5, seed=2)
        assert res.mean_error <= 0.05

    def test_default_fold_count_is_ten(self):
        assert DEFAULT_FOLDS == 10

    def test_selection_recorded_when_present(self, blob3):
        ds = Dataset(x=blob3.x, y=blob3.y, class_names=blob3.class_names,
                     feature_names=blob3.feature_names,
                     selection=FeatureSelection.FS2)
        res = cross_validate(constant_spec(), ds, k=3, seed=0)
        assert res.selection == "FS2"


class TestClassifierGrid:
    def test_default_grid_has_twenty_one_labels(self):
        assert len(DEFAULT_GRID) == 21
        assert len(set(DEFAULT_GRID)) == 21

    @pytest.mark.parametrize("label", DEFAULT_GRID)
    def test_every_default_label_resolves_and_fits(self, label):
        ds = make_blobs(centers=[(0, 0), (4, 4), (-4, 4)], n_per_class=12,
                        scale=0.6, seed=13)
        spec = make_classifier_spec(label)
        assert spec.label == label
        model = spec.fit(ds, seed=1)
        predictions = model.classify_batch(ds.x[:5])
        assert predictions.shape == (5,)
        # a row scores the same alone as within a batch
        scores = model.scores_batch(ds.x[:5])
        for i, row in enumerate(ds.x[:5]):
            assert model.classify_batch(row[None])[0] == predictions[i]
            assert np.allclose(model.scores_batch(row[None])[0], scores[i])

    @pytest.mark.parametrize("label", DEFAULT_GRID)
    def test_every_default_label_scores_zero_rows(self, label):
        ds = make_blobs(centers=[(0, 0, 0), (4, 4, 1), (-4, 4, -1)], n_per_class=12,
                        scale=0.6, seed=13)
        model = make_classifier_spec(label).fit(ds, seed=1)
        assert model.scores_batch(np.empty((0, ds.d))).shape == (0, ds.n_classes)
        assert model.classify_batch(np.empty((0, ds.d))).shape == (0,)

    @pytest.mark.parametrize("label", DEFAULT_GRID)
    def test_every_default_label_scores_a_flat_row_as_one_row(self, label):
        ds = make_blobs(centers=[(0, 0, 0), (4, 4, 1), (-4, 4, -1)], n_per_class=12,
                        scale=0.6, seed=13)
        model = make_classifier_spec(label).fit(ds, seed=1)
        assert np.array_equal(model.scores_batch(ds.x[0]), model.scores_batch(ds.x[:1]))

    @pytest.mark.parametrize("label", DEFAULT_GRID)
    def test_every_default_label_rejects_rows_of_another_width(self, label):
        ds = make_blobs(centers=[(0, 0, 0), (4, 4, 1), (-4, 4, -1)], n_per_class=12,
                        scale=0.6, seed=13)
        model = make_classifier_spec(label).fit(ds, seed=1)
        for width in (1, ds.d + 1):
            with pytest.raises(DimensionMismatch):
                model.classify_batch(np.zeros((4, width)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("label", DEFAULT_GRID)
    def test_every_default_label_rejects_non_finite_queries(self, label, bad):
        ds = make_blobs(centers=[(0, 0, 0), (4, 4, 1), (-4, 4, -1)], n_per_class=12,
                        scale=0.6, seed=13)
        model = make_classifier_spec(label).fit(ds, seed=1)
        queries = ds.x[:4].copy()
        queries[2, 1] = bad
        queries[3, 0] = bad
        with pytest.raises(SchemaViolation, match="row 2, column 1"):
            model.scores_batch(queries)
        with pytest.raises(SchemaViolation, match="row 0, column 2"):
            model.classify_batch(np.where(np.arange(3) == 2, bad, 0.0))

    @pytest.mark.parametrize("label", DEFAULT_GRID)
    def test_every_default_label_checks_its_training_set(self, label):
        ds = make_blobs(centers=[(0, 0), (4, 4), (-4, 4)], n_per_class=12,
                        scale=0.6, seed=13)
        spec = make_classifier_spec(label)
        with pytest.raises(TooFewSamples, match="cannot fit on zero samples"):
            spec.fit(ds.subset(np.arange(0)), seed=1)
        one_class = ds.subset(np.flatnonzero(ds.y == 1))
        if spec.family in ("KNN", "DT", "BaggedTree"):
            assert np.all(spec.fit(one_class, seed=1)
                          .classify_batch(one_class.x) == 1)
        else:
            with pytest.raises(EmptyClass, match="training data holds a single class"):
                spec.fit(one_class, seed=1)

    def test_unknown_label_rejected(self):
        with pytest.raises(BadConfig, match="unknown classifier label"):
            make_classifier_spec("SVM-Quadratic")

    @pytest.mark.parametrize("label", DEFAULT_GRID)
    def test_every_default_label_describes_its_model_as_json(self, label, golden_fs2_fold):
        """A fitted model's describe() is a dict that JSON takes as it is,
        and leaves the family to the spec, the one place that names it."""
        spec = make_classifier_spec(label)
        record = spec.fit(golden_fs2_fold, seed=1).describe()
        assert "family" not in record
        assert spec.describe()["family"] == spec.family
        json.dumps(record)

    def test_describe_includes_label_and_parameters(self):
        spec = ClassifierSpec(
            label="KNN-Euclidean", family="KNN",
            fitter=lambda train, seed: fit_knn(train, k=7), params=(("k", 7),))
        desc = spec.describe()
        assert desc["label"] == "KNN-Euclidean"
        assert desc["k"] == 7


class TestRanking:
    @staticmethod
    def result(label, selection, mean_error):
        return CvResult(label=label, selection=selection, k=10, seed=0,
                        fold_errors=(mean_error,) * 10,
                        mean_error=mean_error, sd_error=0.0)

    def selections(self):
        return tuple(s.value for s in FeatureSelection)

    def test_hand_computed_table(self):
        errors = {"A": [0.1, 0.2, 0.1, 0.2, 0.1, 0.2],
                  "B": [0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
                  "C": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]}
        results = [self.result(lbl, sel, err)
                   for lbl, errs in errors.items()
                   for sel, err in zip(self.selections(), errs)]
        table = rank_classifiers(results)
        assert [r.label for r in table.rows] == ["A", "C", "B"]
        row_a = table.rows[0]
        assert row_a.accuracies == (0.9, 0.8, 0.9, 0.8, 0.9, 0.8)
        assert abs(row_a.mean_accuracy - 0.85) <= 1e-12
        # population sd of three 0.9s and three 0.8s is 0.05
        assert abs(row_a.sd_accuracy - 0.05) <= 1e-12

    def test_mean_tie_broken_by_lower_sd_then_label(self):
        flat = [self.result("Flat", sel, 0.2) for sel in self.selections()]
        bumpy_errors = [0.1, 0.3, 0.1, 0.3, 0.1, 0.3]
        bumpy = [self.result("Bumpy", sel, e)
                 for sel, e in zip(self.selections(), bumpy_errors)]
        twin = [self.result("AFlat", sel, 0.2) for sel in self.selections()]
        table = rank_classifiers(flat + bumpy + twin)
        assert [r.label for r in table.rows] == ["AFlat", "Flat", "Bumpy"]

    def test_missing_cell_rejected(self):
        results = [self.result("A", sel, 0.1)
                   for sel in self.selections()[:-1]]  # FS6 absent
        with pytest.raises(MissingCell, match="FS6"):
            rank_classifiers(results)

    def test_duplicate_cell_rejected(self):
        results = [self.result("A", sel, 0.1) for sel in self.selections()]
        results.append(self.result("A", "FS3", 0.5))
        with pytest.raises(BadConfig, match="two results for A on FS3"):
            rank_classifiers(results)

    def test_restricted_selection_set(self):
        results = [self.result("A", "FS1", 0.4), self.result("A", "FS2", 0.2)]
        table = rank_classifiers(results, selections=("FS1", "FS2"))
        assert table.selections == ("FS1", "FS2")
        assert table.rows[0].accuracies == (0.6, 0.8)

    @pytest.mark.parametrize("selections, repeated", [
        (("FS1", "FS1"), "FS1"), (("FS2", "FS1", "FS2"), "FS2"),
        ((FeatureSelection.FS4, "FS5", "FS4"), "FS4")])
    def test_repeated_selection_rejected(self, selections, repeated):
        results = [self.result("A", sel, 0.1) for sel in self.selections()]
        with pytest.raises(BadConfig, match=f"^feature selection {repeated} "
                           "is listed twice$"):
            rank_classifiers(results, selections=selections)

    @pytest.mark.parametrize("with_results", [True, False])
    def test_no_selections_rejected(self, with_results):
        results = [self.result("A", "FS1", 0.4)] if with_results else []
        with pytest.raises(BadConfig, match="at least one feature selection"):
            rank_classifiers(results, selections=())


class TestPcaStudy:
    def test_rotation_invariant_classifier_matches_raw_at_full_dimension(self):
        # Mahalanobis distances are invariant under any invertible affine
        # map, an orthonormal change of basis included, so using all d
        # components must reproduce the raw run.
        ds = make_blobs(centers=[(0, 0), (3, 3), (-3, 3)], n_per_class=12,
                        scale=0.8, seed=31)
        spec = make_classifier_spec("KNN-Mahalanobis")
        study = pca_study(spec, ds, k=4, seed=6)
        assert study.component_errors[-1] == study.raw_error

    def test_raw_column_is_cross_validate_at_the_same_k_and_seed(self):
        # axis-aligned tree splits change under a rotation, so the raw
        # column differs from the full-dimension one; and another seed's
        # folds give another raw error, so equality pins the fold plan.
        ds = make_blobs(centers=[(0, 0), (3, 3), (-3, 3)], n_per_class=12,
                        scale=1.5, seed=31)
        spec = make_classifier_spec("DT-Gini")
        study = pca_study(spec, ds, k=4, seed=2)
        assert study.raw_error == cross_validate(spec, ds, k=4, seed=2).mean_error
        assert study.raw_error != study.component_errors[-1]
        assert study.raw_error != cross_validate(spec, ds, k=4, seed=0).mean_error

    def test_curve_has_one_entry_per_dimension(self, blob3):
        spec = make_classifier_spec("LDA-FullCov")
        study = pca_study(spec, blob3, k=4, seed=2)
        assert len(study.component_errors) == blob3.d
        assert len(study.variance_explained) == blob3.d
        assert study.variance_explained[-1] == pytest.approx(1.0, abs=1e-9)

    def test_informative_direction_beats_noise_only_projection(self):
        # classes separate along x0; x1 carries 25x the variance but no
        # signal, so the first component alone is near-chance while the
        # full basis recovers the signal.
        rng = np.random.default_rng(40)
        n = 60
        y = np.arange(n) % 2
        x = np.column_stack([y * 1.5 + rng.normal(0, 0.2, n),
                             rng.normal(0, 5.0, n)])
        ds = Dataset(x=x, y=y, class_names=("a", "b"),
                     feature_names=("signal", "noise"))
        spec = make_classifier_spec("LDA-FullCov")
        study = pca_study(spec, ds, k=5, seed=8)
        assert study.component_errors[0] >= 0.3
        assert study.component_errors[1] <= 0.1

    def test_single_feature_rejected(self):
        ds = label_dataset([0, 0, 1, 1, 0, 1], 2, d=1)
        with pytest.raises(BadConfig):
            pca_study(make_classifier_spec("LDA-FullCov"), ds, k=2, seed=0)


class TestCorrelationHistogram:
    def test_identical_and_opposite_columns_land_in_the_edge_bins(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=30)
        ds = Dataset(x=np.column_stack([base, base, -base]),
                     y=np.zeros(30, dtype=int), class_names=("only",),
                     feature_names=("a", "b", "c"))
        hist = correlation_histogram(ds)
        assert len(hist.counts) == 20
        assert len(hist.bin_edges) == 21
        assert hist.bin_edges[0] == -1.0 and hist.bin_edges[-1] == 1.0
        # pairs: (a,b) -> +1, (a,c) -> -1, (b,c) -> -1
        assert hist.counts[-1] == 1
        assert hist.counts[0] == 2
        assert sum(hist.counts) == 3
        assert hist.undefined_pairs == 0

    def test_constant_column_counts_as_undefined(self):
        rng = np.random.default_rng(4)
        ds = Dataset(x=np.column_stack([rng.normal(size=10),
                                        np.full(10, 2.5),
                                        rng.normal(size=10)]),
                     y=np.zeros(10, dtype=int), class_names=("only",),
                     feature_names=("a", "const", "b"))
        hist = correlation_histogram(ds)
        assert hist.undefined_pairs == 2
        assert sum(hist.counts) == 1

    def test_too_few_samples_rejected(self):
        ds = label_dataset([0, 0], 1, d=3)
        with pytest.raises(TooFewSamples):
            correlation_histogram(ds)

    def test_single_feature_rejected(self):
        ds = label_dataset([0, 0, 0, 0], 1, d=1)
        with pytest.raises(BadConfig):
            correlation_histogram(ds)

    def test_bins_have_width_one_tenth(self):
        rng = np.random.default_rng(5)
        ds = Dataset(x=rng.normal(size=(20, 3)), y=np.zeros(20, dtype=int),
                     class_names=("only",), feature_names=("a", "b", "c"))
        hist = correlation_histogram(ds)
        widths = np.diff(hist.bin_edges)
        assert np.allclose(widths, 0.1, atol=1e-12)


class TestCsvRendering:
    def test_header_lines_are_sorted_comments(self):
        text = render_csv({"seed": 3, "command": "evaluate", "k": 10},
                          ["a", "b"], [(1, 2.5)])
        lines = text.splitlines()
        assert lines[0] == "# command=evaluate"
        assert lines[1] == "# k=10"
        assert lines[2] == "# seed=3"
        assert lines[3] == "a,b"
        assert lines[4] == "1,2.5"

    @pytest.mark.parametrize("settings", [
        {"panel": "x\ny"}, {"panel": "x\r\n"}, {"panel": "x\u2028y"},
        {"pa\nnel": "x"}, {"a=b": "x"}, {"seed": 0, "panel": "\n"}])
    def test_setting_that_breaks_its_header_line_rejected(self, settings):
        res = CvResult(label="LR", selection="FS1", k=2, seed=0,
                       fold_errors=(0.0, 0.5), mean_error=0.25, sd_error=0.25)
        with pytest.raises(BadConfig, match="breaks its header line"):
            render_cv_csv(res, settings)

    def test_value_may_hold_an_equals_sign(self):
        text = render_csv({"panel": "a=b.csv"}, ["v"], [(1,)])
        assert text.splitlines() == ["# panel=a=b.csv", "v", "1"]

    def test_floats_rendered_with_full_precision(self):
        value = 1.0 / 3.0
        text = render_csv({}, ["v"], [(value,)])
        assert repr(value) in text
        assert float(text.splitlines()[-1]) == value

    def test_cv_csv_lists_folds_then_summary(self):
        res = CvResult(label="LR", selection="FS1", k=3, seed=0,
                       fold_errors=(0.0, 0.5, 0.25),
                       mean_error=0.25, sd_error=0.2041241452319315)
        text = render_cv_csv(res, {"seed": 0})
        lines = text.splitlines()
        assert lines[1] == "fold,misclassification_rate"
        assert lines[2] == "0,0.0"
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("sd,")

    def test_family_csv_has_header_columns_and_exact_floats(self):
        results = [
            CvResult(label="LR", selection=s, k=3, seed=4,
                     fold_errors=(0.1, 0.2, 0.3), mean_error=mean, sd_error=sd)
            for s, mean, sd in [("FS1", 0.2, 0.08164965809277261),
                                ("FS3", 1.0 / 3.0, 0.1 + 0.2),
                                ("FS6", 2.0 ** -40, 1e-300)]]
        text = render_family_csv(results, {"seed": 4, "k": 3, "command": "grid"})
        lines = text.splitlines()
        assert lines[:3] == ["# command=grid", "# k=3", "# seed=4"]
        assert lines[3] == "classifier,feature_selection,mean_error,sd_error"
        assert len(lines) == 4 + len(results)
        for line, result in zip(lines[4:], results):
            label, selection, mean, sd = line.split(",")
            assert (label, selection) == (result.label, result.selection)
            assert float(mean) == result.mean_error
            assert float(sd) == result.sd_error

    def test_ranking_csv_columns(self):
        row_results = [TestRanking.result("A", s.value, 0.1)
                       for s in FeatureSelection]
        table = rank_classifiers(row_results)
        text = render_ranking_csv(table, {"seed": 0})
        header = text.splitlines()[1].split(",")
        assert header[0] == "classifier"
        assert header[1] == "accuracy_FS1"
        assert header[-2:] == ["mean_accuracy", "sd_accuracy"]

    def test_pca_csv_has_raw_row_and_gap_column(self, blob3):
        spec = make_classifier_spec("LDA-FullCov")
        study = pca_study(spec, blob3, k=4, seed=2)
        text = render_pca_csv(study, {"seed": 2})
        lines = text.splitlines()
        assert lines[1].split(",") == ["components", "accuracy",
                                       "variance_explained",
                                       "accuracy_minus_raw"]
        assert lines[-1].startswith("raw,")
        # the gap column is accuracy minus the raw-feature accuracy
        first = lines[2].split(",")
        assert float(first[3]) == pytest.approx(
            float(first[1]) - (1.0 - study.raw_error), abs=1e-12)

    def test_histogram_csv_ends_with_undefined_row(self):
        rng = np.random.default_rng(6)
        ds = Dataset(x=rng.normal(size=(15, 3)), y=np.zeros(15, dtype=int),
                     class_names=("only",), feature_names=("a", "b", "c"))
        text = render_histogram_csv(correlation_histogram(ds), {"seed": 6})
        lines = text.splitlines()
        assert lines[1] == "bin_low,bin_high,count"
        assert lines[-1].startswith("undefined,undefined,")
        assert len(lines) == 2 + 20 + 1  # header comment, columns, bins, tail

    def test_rendering_is_deterministic(self, blob3):
        spec = make_classifier_spec("LDA-FullCov")
        res_a = cross_validate(spec, blob3, k=5, seed=1)
        res_b = cross_validate(spec, blob3, k=5, seed=1)
        assert (render_cv_csv(res_a, {"seed": 1})
                == render_cv_csv(res_b, {"seed": 1}))
