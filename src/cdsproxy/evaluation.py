"""Stratified K-fold evaluation, ranking, PCA study, correlation diagnostic.

The fold plan shuffles each class with a seeded generator and deals the
shuffled members round-robin with one global counter, so fold sizes AND
per-class fold counts both differ by at most one. Cross-validation fits on
the K-1 training folds only (classifiers standardize internally on what
they are given, so no holdout row leaks into any fitted statistic), scores
the holdout fold, and summarises the K misclassification rates by their
mean and population standard deviation.
"""
from __future__ import annotations

import csv
import functools
import math
import types
from dataclasses import asdict, dataclass, is_dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import numerics as nm
from .bayes import KernelKind, fit_lda, fit_nb, fit_qda
from .core import ClassifierModel, Dataset, FeatureSelection
from .errors import (
    BadConfig,
    CdsProxyError,
    EmptyClass,
    FitFailure,
    MissingCell,
    TooFewSamples,
    non_negative_integer,
    positive_integer,
)
from .logistic import fit_logistic_multiclass
from .neighbors import Metric, fit_knn
from .neuralnet import Activation, fit_neural_net
from .svm import KernelSpec, SvmKernel, fit_svm_multiclass
from .trees import SplitCriterion, fit_bagged, fit_tree

DEFAULT_FOLDS = 10
_FOLD_SEED_STRIDE = 100003      # distinct per-fold fit seeds from one run seed


# ----------------------------------------------------------------- folds


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every sample to exactly one of k folds."""

    k: int
    assignment: np.ndarray

    def holdout_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def training_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def stratified_folds(dataset: Dataset, k: int, seed: int = 0) -> FoldPlan:
    """Per-class seeded shuffle, then one global round-robin dealing pass."""
    n = dataset.n
    k = positive_integer("fold count", k)
    if k < 2 or k > n:
        raise BadConfig(f"fold count must satisfy 2 <= K <= {n}, got {k}")
    rng = np.random.default_rng(non_negative_integer("seed", seed))
    dealt = []          # every class's rows, each class shuffled, in class order
    for j in range(dataset.n_classes):
        rows = np.flatnonzero(dataset.y == j)
        if rows.size == 0:
            raise EmptyClass(
                f"class {dataset.class_names[j]!r} has no samples to deal")
        dealt.append(rows[rng.permutation(rows.size)])
    assignment = np.empty(n, dtype=int)
    assignment[np.concatenate(dealt)] = np.arange(n) % k
    return FoldPlan(k=k, assignment=assignment)


# ------------------------------------------------------------ classifier grid


@dataclass(frozen=True)
class ClassifierSpec:
    """A grid entry: label, family, fit callable and fixed parameters. The
    spec is the one place that names a family; describe() gives the label,
    the family and the parameters as JSON values, a KernelSpec as a dict of
    its fields, and a fitted model's describe() its fit diagnostics."""

    label: str
    family: str
    fitter: Callable[[Dataset, int], ClassifierModel]
    params: tuple = ()

    def fit(self, train: Dataset, seed: int = 0) -> ClassifierModel:
        return self.fitter(train, seed)

    def describe(self) -> dict:
        return {"label": self.label, "family": self.family,
                **{name: asdict(v) if is_dataclass(v) else v for name, v in self.params}}


# label -> (family, fit function, fixed parameters)
_CLASSIFIERS: dict[str, tuple[str, Callable[..., ClassifierModel], dict]] = {
    "LDA-FullCov": ("DA", fit_lda, {"mode": nm.CovMode.FULL}),
    "LDA-DiagonalCov": ("DA", fit_lda, {"mode": nm.CovMode.DIAGONAL}),
    "QDA-FullCov": ("DA", fit_qda, {"mode": nm.CovMode.FULL}),
    "QDA-DiagonalCov": ("DA", fit_qda, {"mode": nm.CovMode.DIAGONAL}),
    "NB-norm-kernel": ("NB", fit_nb, {"kernel": KernelKind.NORMAL}),
    "NB-tria-kernel": ("NB", fit_nb, {"kernel": KernelKind.TRIANGULAR}),
    "NB-epan-kernel": ("NB", fit_nb, {"kernel": KernelKind.EPANECHNIKOV}),
    "KNN-Euclidean": ("KNN", fit_knn, {"metric": Metric.EUCLIDEAN}),
    "KNN-CityBlock": ("KNN", fit_knn, {"metric": Metric.CITYBLOCK}),
    "KNN-Mahalanobis": ("KNN", fit_knn, {"metric": Metric.MAHALANOBIS}),
    "LR": ("LR", fit_logistic_multiclass, {}),
    "DT-Gini": ("DT", fit_tree, {"criterion": SplitCriterion.GINI}),
    "DT-Entropy": ("DT", fit_tree, {"criterion": SplitCriterion.ENTROPY}),
    "DT-Twoing": ("DT", fit_tree, {"criterion": SplitCriterion.TWOING}),
    "SVM-Linear": ("SVM", fit_svm_multiclass,
                   {"kernel": KernelSpec(SvmKernel.LINEAR)}),
    "SVM-Gaussian": ("SVM", fit_svm_multiclass,
                     {"kernel": KernelSpec(SvmKernel.GAUSSIAN)}),
    "SVM-Poly": ("SVM", fit_svm_multiclass,
                 {"kernel": KernelSpec(SvmKernel.POLYNOMIAL)}),
    "NN-Tangent": ("NN", fit_neural_net, {"activation": Activation.TAN_SIGMOID}),
    "NN-Linear": ("NN", fit_neural_net, {"activation": Activation.LINEAR}),
    "NN-Elliot": ("NN", fit_neural_net, {"activation": Activation.ELLIOT_SIGMOID}),
    "BaggedTree": ("BaggedTree", fit_bagged, {}),
}


def _fit_entry(family: str, fit: Callable[..., ClassifierModel], params: dict,
               train: Dataset, seed: int) -> ClassifierModel:
    """Fit one table entry; only the NN and BaggedTree families draw random
    numbers, so only they take the fold seed.

    The fit function is looked up by name in this module when it runs, so a
    wrapper installed on that name (perfbench's tracer) sees every fit.
    """
    fit = globals()[fit.__name__]
    if family in ("NN", "BaggedTree"):
        return fit(train, seed=seed, **params)
    return fit(train, **params)


def make_classifier_spec(label: str) -> ClassifierSpec:
    """The grid entry of a label such as 'QDA-FullCov'."""
    if label not in _CLASSIFIERS:
        raise BadConfig(f"unknown classifier label {label!r}; "
                        f"known labels: {', '.join(sorted(_CLASSIFIERS))}")
    family, fit, params = _CLASSIFIERS[label]
    return ClassifierSpec(label=label, family=family,
                          fitter=functools.partial(_fit_entry, family, fit, params),
                          params=tuple(params.items()))


DEFAULT_GRID: tuple[str, ...] = tuple(_CLASSIFIERS)


# ------------------------------------------------------------------ CV


@dataclass(frozen=True)
class CvResult:
    """Per-fold holdout misclassification rates and their summary."""

    label: str
    selection: str
    k: int
    seed: int
    fold_errors: tuple[float, ...]
    mean_error: float
    sd_error: float

    @property
    def accuracy(self) -> float:
        return 1.0 - self.mean_error


def summarize_errors(errors: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation (divide by K inside the root);
    BadConfig for no errors."""
    k = len(errors)
    if k == 0:
        raise BadConfig("cannot summarise an empty sequence of errors")
    mean = math.fsum(errors) / k
    var = math.fsum((e - mean) ** 2 for e in errors) / k
    return mean, math.sqrt(var)


def fold_seed(seed: int, fold: int) -> int:
    return seed * _FOLD_SEED_STRIDE + fold


def _holdout_error(spec: ClassifierSpec, train: Dataset, holdout_x: np.ndarray,
                   holdout_y: np.ndarray, seed: int, where: str) -> float:
    """Fit on train and return the misclassification rate on the holdout
    rows; a fit error is re-raised as FitFailure naming the label and where."""
    try:
        model = spec.fit(train, seed)
    except CdsProxyError as exc:
        raise FitFailure(f"{spec.label} on {where}: {exc}") from exc
    return float(np.mean(model.classify_batch(holdout_x) != holdout_y))


def cross_validate(spec: ClassifierSpec, dataset: Dataset,
                   k: int = DEFAULT_FOLDS, seed: int = 0) -> CvResult:
    """Score each holdout fold of stratified_folds(dataset, k, seed), fit on the rest.

    Any error raised while fitting a fold is re-raised as FitFailure naming
    the label, the feature selection and the fold index; no partial result
    is returned.
    """
    plan = stratified_folds(dataset, k, seed)
    selection = dataset.selection.value if dataset.selection else ""
    errors = []
    for fold in range(plan.k):
        holdout = plan.holdout_rows(fold)
        errors.append(_holdout_error(
            spec, dataset.subset(plan.training_rows(fold)), dataset.x[holdout],
            dataset.y[holdout], fold_seed(seed, fold),
            f"{selection or 'no selection'} fold {fold}"))
    mean, sd = summarize_errors(errors)
    return CvResult(label=spec.label, selection=selection,
                    k=plan.k, seed=seed, fold_errors=tuple(errors),
                    mean_error=mean, sd_error=sd)


# --------------------------------------------------------------- ranking


@dataclass(frozen=True)
class RankingRow:
    label: str
    accuracies: tuple[float, ...]      # one per feature selection, in order
    mean_accuracy: float
    sd_accuracy: float


@dataclass(frozen=True)
class RankingTable:
    selections: tuple[str, ...]
    rows: tuple[RankingRow, ...]


def rank_classifiers(results: Iterable[CvResult],
                     selections: Sequence[FeatureSelection | str] = tuple(FeatureSelection),
                     ) -> RankingTable:
    """Mean/sd of accuracy over the feature selections, best row first.

    BadConfig for a selection listed twice or two results in one cell.
    """
    wanted = tuple(FeatureSelection(s).value for s in selections)
    if not wanted:
        raise BadConfig("ranking needs at least one feature selection")
    for sel in wanted:
        if wanted.count(sel) > 1:
            raise BadConfig(f"feature selection {sel} is listed twice")
    cells: dict[tuple[str, str], CvResult] = {}
    labels: list[str] = []
    for res in results:
        if res.label not in labels:
            labels.append(res.label)
        if (res.label, res.selection) in cells:
            raise BadConfig(f"two results for {res.label} on {res.selection}")
        cells[(res.label, res.selection)] = res
    rows = []
    for label in labels:
        accs = []
        for sel in wanted:
            if (label, sel) not in cells:
                raise MissingCell(f"no result for {label} on {sel}")
            accs.append(cells[(label, sel)].accuracy)
        mean, sd = summarize_errors(accs)
        rows.append(RankingRow(label=label, accuracies=tuple(accs),
                               mean_accuracy=mean, sd_accuracy=sd))
    rows.sort(key=lambda r: (-r.mean_accuracy, r.sd_accuracy, r.label))
    return RankingTable(selections=wanted, rows=tuple(rows))


# -------------------------------------------------------------- PCA study


@dataclass(frozen=True)
class PcaStudyResult:
    label: str
    component_errors: tuple[float, ...]     # mean error using m = 1..d PCs
    raw_error: float                        # untransformed features
    variance_explained: tuple[float, ...]   # cumulative share, full data


def pca_study(spec: ClassifierSpec, dataset: Dataset,
              k: int = DEFAULT_FOLDS, seed: int = 0) -> PcaStudyResult:
    """Accuracy as a function of the number of leading components.

    The component basis is refit on every training fold so holdout rows
    never influence the transform; the raw-feature column, cross_validate
    at the same k and seed, deals the same folds and so compares exactly.
    """
    if dataset.d < 2:
        raise BadConfig("component study needs at least two features")
    plan = stratified_folds(dataset, k, seed)
    selection = dataset.selection.value if dataset.selection else "no selection"
    fold_bases = []
    for fold in range(plan.k):
        train_rows = plan.training_rows(fold)
        fold_bases.append(nm.pca_fit(dataset.x[train_rows]))
    component_errors = []
    for m in range(1, dataset.d + 1):
        errors = []
        names = tuple(f"component_{i + 1}" for i in range(m))
        for fold in range(plan.k):
            basis = fold_bases[fold]
            train_rows = plan.training_rows(fold)
            holdout = plan.holdout_rows(fold)
            train = Dataset(x=nm.pca_transform(basis, dataset.x[train_rows], m),
                            y=dataset.y[train_rows],
                            class_names=dataset.class_names,
                            feature_names=names)
            errors.append(_holdout_error(
                spec, train, nm.pca_transform(basis, dataset.x[holdout], m),
                dataset.y[holdout], fold_seed(seed, fold),
                f"{selection} with {m} components, fold {fold}"))
        component_errors.append(summarize_errors(errors)[0])
    raw = cross_validate(spec, dataset, k=k, seed=seed)
    full_basis = nm.pca_fit(dataset.x)
    return PcaStudyResult(label=spec.label, component_errors=tuple(component_errors),
                          raw_error=raw.mean_error,
                          variance_explained=tuple(full_basis.variance_explained))


# ------------------------------------------------------ correlation study


@dataclass(frozen=True)
class CorrelationHistogram:
    bin_edges: tuple[float, ...]            # 21 edges, width 0.1 over [-1, 1]
    counts: tuple[int, ...]                 # 20 bins
    values: tuple[float, ...]               # defined pairwise correlations
    undefined_pairs: int


def correlation_histogram(dataset: Dataset) -> CorrelationHistogram:
    """Pearson correlations of every feature pair, binned in steps of 0.1."""
    if dataset.n < 3:
        raise TooFewSamples(
            f"correlations need at least 3 samples, got {dataset.n}")
    if dataset.d < 2:
        raise BadConfig("correlations need at least two features")
    x = dataset.x
    centered = x - x.mean(axis=0)
    scales = np.sqrt((centered * centered).sum(axis=0))
    a, b = np.triu_indices(dataset.d, 1)
    defined = (scales[a] != 0.0) & (scales[b] != 0.0)
    a, b = a[defined], b[defined]
    values = np.clip((centered.T @ centered)[a, b] / (scales[a] * scales[b]),
                     -1.0, 1.0)
    edges = np.linspace(-1.0, 1.0, 21)
    counts, _ = np.histogram(values, bins=edges)
    return CorrelationHistogram(bin_edges=tuple(float(e) for e in edges),
                                counts=tuple(int(c) for c in counts),
                                values=tuple(values.tolist()),
                                undefined_pairs=int(np.count_nonzero(~defined)))


# ------------------------------------------------------------- CSV output


def format_float(v: float) -> str:
    return repr(float(v))


def config_header(settings: dict) -> list[str]:
    """Sorted `# key=value` comment lines embedded in every output file;
    BadConfig for a non-str key, a key with '=', or a key or value str.splitlines splits."""
    if not all(isinstance(key, str) for key in settings):
        raise BadConfig(f"setting keys must be str, got {list(settings)!r}")
    lines = [f"{key}={settings[key]}" for key in sorted(settings)]
    for key, line in zip(sorted(settings), lines):
        if "=" in key or line.splitlines() != [line]:
            raise BadConfig(f"setting {key!r}={settings[key]!r} breaks its header line")
    return [f"# {line}" for line in lines]


def render_csv(header_settings: dict, columns: Sequence[str],
               rows: Iterable[Sequence]) -> str:
    """Header lines, then CSV records: written with the terminator '\\r\\n',
    then cut off, so that the csv module quotes either line break."""
    lines = config_header(header_settings)
    records: list[str] = []
    writer = csv.writer(types.SimpleNamespace(write=records.append), lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows([format_float(v) if isinstance(v, float) else str(v)
                      for v in row] for row in rows)
    return "\n".join(lines + [r[:-2] for r in records]) + "\n"


def render_cv_csv(result: CvResult, settings: dict) -> str:
    rows = [*enumerate(result.fold_errors), ("mean", result.mean_error),
            ("sd", result.sd_error)]
    return render_csv(settings, ["fold", "misclassification_rate"], rows)


def render_ranking_csv(table: RankingTable, settings: dict) -> str:
    columns = (["classifier"] + [f"accuracy_{s}" for s in table.selections]
               + ["mean_accuracy", "sd_accuracy"])
    rows = [[row.label, *row.accuracies, row.mean_accuracy, row.sd_accuracy]
            for row in table.rows]
    return render_csv(settings, columns, rows)


def render_family_csv(results: Sequence[CvResult], settings: dict) -> str:
    """Per-classifier mean/sd table over feature selections."""
    columns = ["classifier", "feature_selection", "mean_error", "sd_error"]
    rows = [(r.label, r.selection, r.mean_error, r.sd_error) for r in results]
    return render_csv(settings, columns, rows)


def render_pca_csv(study: PcaStudyResult, settings: dict) -> str:
    columns = ["components", "accuracy", "variance_explained",
               "accuracy_minus_raw"]
    raw_accuracy = 1.0 - study.raw_error
    accuracies = [1.0 - err for err in study.component_errors]
    rows: list[Sequence] = [
        (m, acc, explained, acc - raw_accuracy) for m, (acc, explained)
        in enumerate(zip(accuracies, study.variance_explained), start=1)]
    rows.append(("raw", raw_accuracy, 1.0, 0.0))
    return render_csv(settings, columns, rows)


def render_histogram_csv(hist: CorrelationHistogram, settings: dict) -> str:
    edges = hist.bin_edges
    rows = [*zip(edges, edges[1:], hist.counts),
            ("undefined", "undefined", hist.undefined_pairs)]
    return render_csv(settings, ["bin_low", "bin_high", "count"], rows)
