"""Tests of the benchmark itself: its fold loop, its references and its
metric names.

Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import references as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from cdsproxy import baselines, core, datagen, evaluation, neighbors, numerics  # noqa: E402
from cdsproxy.core import FeatureSelection  # noqa: E402
from cdsproxy.datagen import GeneratorConfig  # noqa: E402
from cdsproxy.errors import NoConvergence  # noqa: E402
from cdsproxy.trees import TreeNode  # noqa: E402

CHEAP = ("LDA-FullCov", "LDA-DiagonalCov", "QDA-FullCov", "QDA-DiagonalCov",
         "NB-norm-kernel", "NB-tria-kernel", "NB-epan-kernel",
         "KNN-Euclidean", "KNN-CityBlock", "KNN-Mahalanobis", "LR",
         "DT-Gini", "DT-Entropy", "DT-Twoing")
SMALL = GeneratorConfig(n_counterparties=4, n_days=30, seed=3)


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def small_dataset(selection=FeatureSelection.FS2):
    return core.build_dataset(datagen.generate_panel(SMALL), selection)


def fitted(label, dataset, seed=0):
    return evaluation.make_classifier_spec(label).fit(dataset, seed)


def mini_paper(tmp_path):
    return wl.PaperStudy(1, tmp_path, config=SMALL,
                         labels=("QDA-FullCov", "NB-tria-kernel",
                                 "KNN-Mahalanobis", "DT-Twoing", "NN-Elliot",
                                 "SVM-Gaussian", "BaggedTree"))


def mini_large(tmp_path):
    return wl.LargePanel(2, tmp_path, config=dict(n_counterparties=6, n_days=30),
                         n_illiquid=2, every_fold=("LDA-FullCov", "DT-Gini"),
                         heavy=("NB-norm-kernel", "KNN-Euclidean"),
                         heavy_folds=2)


# ------------------------------------------------------------- fold loop


@pytest.mark.parametrize("label", CHEAP)
def test_fold_loop_reproduces_cross_validate_bit_for_bit(label):
    dataset = small_dataset()
    spec = evaluation.make_classifier_spec(label)
    expected = evaluation.cross_validate(spec, dataset, k=5, seed=7)
    plan = evaluation.stratified_folds(dataset, 5, 7)
    errors = tuple(wl.run_fold(spec, dataset, plan, fold, 7).error
                   for fold in range(5))
    assert errors == expected.fold_errors


def test_paper_subset_covers_every_cell_and_keeps_the_failures():
    keys = wl.paper_subset()
    assert len(set(keys)) == len(keys)
    folds: dict[tuple[str, str], int] = {}
    for label, selection, _ in keys:
        folds[(label, selection)] = folds.get((label, selection), 0) + 1
    assert len(folds) == len(evaluation.DEFAULT_GRID) * 6
    for (label, _), count in folds.items():
        family = evaluation.make_classifier_spec(label).family
        assert count == (1 if family in wl.PAPER_ONE_FOLD_FAMILIES
                         else wl.PAPER_CHEAP_FOLDS)
    for (label, selection), fold in wl.PAPER_KEPT_FAILURES.items():
        assert (label, selection, fold) in keys


# ------------------------------------------------------------ references


@pytest.mark.parametrize("label", ["LDA-FullCov", "LDA-DiagonalCov",
                                   "QDA-FullCov", "QDA-DiagonalCov",
                                   "NB-norm-kernel", "NB-tria-kernel",
                                   "NB-epan-kernel", "KNN-Euclidean",
                                   "KNN-CityBlock", "KNN-Mahalanobis"])
def test_prediction_references_agree_and_catch_a_wrong_label(label):
    train = small_dataset()
    x = small_dataset(FeatureSelection.FS2).x[::3] * 1.01
    model = fitted(label, train)
    predicted = model.classify_batch(x)
    assert ref.check_model(model, train.x, train.y, x, predicted, label) == []
    wrong = (predicted + 1) % train.n_classes
    assert ref.check_model(model, train.x, train.y, x, wrong, label) != []


@pytest.mark.parametrize("metric", [neighbors.Metric.EUCLIDEAN,
                                    neighbors.Metric.CITYBLOCK])
def test_knn_exact_distance_ties_go_to_the_lower_index(metric):
    # mean 0 and (n-1) standard deviation 2, so standardising is exact and
    # the query 1.0 (0.5 standardised) lies exactly 0.5 from rows 1, 3
    # and 4; the stable order picks row 1, the only one labelled 1
    x_train = np.array([[-2.0], [2.0], [-2.0], [2.0], [0.0]])
    y_train = np.array([0, 1, 0, 0, 0])
    train = core.Dataset(x=x_train, y=y_train, class_names=("a", "b"),
                         feature_names=("f",))
    query = np.array([[1.0]])
    labels, near_tie = ref.knn_predict(x_train, y_train, 2, 1, metric, query)
    assert labels[0] == 1 and not near_tie[0]
    model = neighbors.fit_knn(train, k=1, metric=metric)
    predicted = model.classify_batch(query)
    assert predicted[0] == 1
    assert ref.check_model(model, x_train, y_train, query, predicted, "knn") == []
    assert ref.check_model(model, x_train, y_train, query, 1 - predicted,
                           "knn") != []


def test_svm_kkt_check_accepts_a_fit_and_rejects_a_broken_alpha():
    model = fitted("SVM-Gaussian", small_dataset())
    assert ref.check_svm(model, "svm") == []
    machine = model.machines[0]
    machine.alpha[np.argmax(machine.alpha)] += 0.5
    assert ref.check_svm(model, "svm") != []


def test_nn_check_accepts_a_fit():
    train = small_dataset()
    model = fitted("NN-Tangent", train, seed=5)
    assert ref.check_nn(model, train.x, train.y, "nn") == []


@pytest.mark.parametrize("label", ["DT-Gini", "DT-Twoing", "BaggedTree"])
def test_tree_leaves_hold_their_majority_label(label):
    train = small_dataset(FeatureSelection.FS1)
    model = fitted(label, train, seed=4)
    assert ref.check_tree_model(model, train.x, train.y, label) == []


def test_tree_check_catches_a_wrong_leaf():
    train = small_dataset(FeatureSelection.FS1)
    tree = fitted("DT-Gini", train)
    leaf = next(i for i, n in enumerate(tree.nodes) if n.is_leaf)
    tree.nodes[leaf] = TreeNode(
        label=(tree.nodes[leaf].label + 1) % tree.n_classes)
    assert ref.check_tree(tree, train.x, train.y, "tree") != []


def test_pca_and_correlation_references_agree():
    dataset = small_dataset(FeatureSelection.FS1)
    study = evaluation.pca_study(evaluation.make_classifier_spec("QDA-FullCov"),
                                 dataset, k=5, seed=1)
    assert ref.check_pca(numerics.pca_fit(dataset.x), study, dataset.x) == []
    histogram = evaluation.correlation_histogram(dataset)
    assert ref.check_correlations(histogram, dataset.x, "FS1") == []


def test_cross_sectional_reference_agrees():
    panel = datagen.generate_panel(GeneratorConfig(n_counterparties=12,
                                                   n_days=5, seed=2))
    records = datagen.records_from_panel(panel)
    model = baselines.fit_cross_sectional(records)
    assert ref.check_cross_sectional(model, records, []) == []


# ---------------------------------------------------- miniature workloads


def test_paper_study_expects_only_the_listed_svm_failures(tmp_path):
    workload = mini_paper(tmp_path)
    stop = NoConvergence("SMO stopped at the update cap")
    for (label, selection), fold in wl.PAPER_KEPT_FAILURES.items():
        assert workload.expected_failure(
            wl.Operation((label, selection, fold), 1.0, stop))
        assert not workload.expected_failure(
            wl.Operation((label, selection, (fold + 1) % wl.FOLDS), 1.0, stop))
    assert not workload.expected_failure(
        wl.Operation(("SVM-Gaussian", "FS1", 0), 1.0, stop))


@pytest.mark.parametrize("make", [mini_paper, mini_large])
def test_miniature_workload_passes_its_checks(make, tmp_path):
    workload = make(tmp_path)
    workload.prepare()
    workload.setup()
    operations = workload.run_round()
    assert operations and all(op.error is None for op in operations)
    problems, _ = run.CHECKS[workload.name](workload)
    assert problems == []


def test_large_panel_checks_catch_a_changed_imputed_rate(tmp_path):
    workload = mini_large(tmp_path)
    workload.prepare()
    workload.setup()
    workload.run_round()
    workload.imputed.values["s"][-1, 0] *= 1.5
    problems, _ = run.CHECKS[workload.name](workload)
    assert problems == ["imputed rates differ from the lstsq reference"]


# ------------------------------------------------------------ metric names


def test_benchmark_json_names_the_workloads():
    assert declared()[2] == list(wl.WORKLOADS) == [
        "paper-study", "large-panel"]


def test_every_end_to_end_metric_printed_is_declared(tmp_path):
    workload = mini_large(tmp_path)
    workload.prepare()
    result = run.run_untraced(workload, seconds=0.0)
    printed = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert printed == declared()[0]
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert len(result["setups_s"]) == run.SETUP_BATCHES


def test_every_per_layer_metric_printed_is_declared(tmp_path):
    workload = mini_large(tmp_path)
    workload.prepare()
    result = run.run_traced(workload, tmp_path / "spans.jsonl")
    printed = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert printed == declared()[1]
    for layer in ("neighbors", "bayes"):
        assert result["metrics"][f"{layer}.predict_peak_mb"][0] > 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
    # the tracer is gone once the traced half ends
    assert not hasattr(evaluation.make_classifier_spec, "__wrapped__")
