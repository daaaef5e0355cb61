"""The benchmark's workloads: paper-study and large-panel.

Every workload is a closed loop with one client. It has a set-up, then
rounds of operations; every round runs the same operations in the same
order, so the share of failed operations is the same in every run. The
objects a round leaves behind are what the reference checks read after
the timed phases.

Functions of the program are reached through their modules
(``evaluation.stratified_folds``, not an imported name), so that the
traced run sees every call.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from cdsproxy import baselines, core, datagen, evaluation
from cdsproxy.core import FeatureSelection
from cdsproxy.datagen import GeneratorConfig
from cdsproxy.errors import CdsProxyError, NoConvergence

FOLDS = 10


@dataclass
class Operation:
    """One timed operation: its key, latency and the error it raised."""

    key: tuple
    latency_s: float
    error: CdsProxyError | None = None


@dataclass
class FoldOutcome:
    """A fold fit with the predict on its holdout."""

    label: str
    selection: str
    fold: int
    model: object = None
    predicted: np.ndarray | None = None
    error: float = math.nan


def run_fold(spec, dataset, plan, fold: int, seed: int) -> FoldOutcome:
    """Fit on the K-1 training folds and score the holdout fold.

    The same steps, in the same order, as one iteration of
    evaluation.cross_validate; a CdsProxyError from the fit propagates.
    """
    train = dataset.subset(plan.training_rows(fold))
    holdout = plan.holdout_rows(fold)
    model = spec.fit(train, evaluation.fold_seed(seed, fold))
    predicted = model.classify_batch(dataset.x[holdout])
    selection = dataset.selection.value if dataset.selection else ""
    return FoldOutcome(label=spec.label, selection=selection, fold=fold,
                       model=model, predicted=predicted,
                       error=float(np.mean(predicted != dataset.y[holdout])))


def timed_folds(keys, specs, datasets, plans, seed):
    """Run fold operations in order; returns (operations, outcomes)."""
    operations, outcomes = [], []
    for key in keys:
        label, selection, fold = key
        start = time.perf_counter()
        try:
            outcome = run_fold(specs[label], datasets[selection],
                               plans[selection], fold, seed)
        except CdsProxyError as exc:
            operations.append(Operation(key, time.perf_counter() - start, exc))
            continue
        operations.append(Operation(key, time.perf_counter() - start))
        outcomes.append(outcome)
    return operations, outcomes


# ------------------------------------------------------------ paper-study


# The folds of every (label, selection) cell are drawn with this fixed seed.
PAPER_SUBSET_SEED = 1705
# A fold fit of SVM, NN or BaggedTree costs up to 8 s, one of the other
# families under 0.1 s. Those cells take one fold and the others two: 210
# operations, so that op_ms_p50 rests on about 170 cheap operations spread
# over the round, while op_ms_p90, the 21st slowest, falls among the NN
# fits. A third fold would move it into the gap between the BaggedTree
# and NN fits, where it jumps from run to run.
PAPER_ONE_FOLD_FAMILIES = ("SVM", "NN", "BaggedTree")
PAPER_CHEAP_FOLDS = 2
# Cells holding fold fits that stop at the SMO update cap without reaching
# the KKT tolerance use their first such fold, so the fault stays measured.
PAPER_KEPT_FAILURES = {
    ("SVM-Linear", "FS1"): 0,
    ("SVM-Linear", "FS4"): 0,
    ("SVM-Poly", "FS3"): 9,
    ("SVM-Poly", "FS4"): 1,
    ("SVM-Poly", "FS6"): 5,
}
PCA_LABEL = "QDA-FullCov"     # rotation invariant, so m = d equals raw


def paper_subset(labels=evaluation.DEFAULT_GRID,
                 selections=core.ALL_SELECTIONS) -> list[tuple[str, str, int]]:
    """The fixed fold subset: every label on every selection, one fold per
    cell of PAPER_ONE_FOLD_FAMILIES and PAPER_CHEAP_FOLDS distinct folds
    per other cell."""
    rng = np.random.default_rng(PAPER_SUBSET_SEED)
    draws = rng.integers(0, FOLDS, size=(len(selections), len(labels)))
    keys = []
    for s, selection in enumerate(selections):
        for j, label in enumerate(labels):
            first = PAPER_KEPT_FAILURES.get((label, selection.value),
                                            int(draws[s, j]))
            folds = [first]
            family = evaluation.make_classifier_spec(label).family
            if family not in PAPER_ONE_FOLD_FAMILIES:
                others = [f for f in rng.permutation(FOLDS).tolist()
                          if f != first]
                folds += others[:PAPER_CHEAP_FOLDS - 1]
            keys += [(label, selection.value, fold) for fold in folds]
    return keys


class PaperStudy:
    """The paper's headline experiment on GeneratorConfig().

    The panel, the fold plans and the fold subset are fixed, because the
    failing fold fits must not depend on the seed; the seed sets the order
    in which a round runs its fold operations. That order is drawn here,
    outside the timed set-up, which times only calls into the program.
    """

    name = "paper-study"

    def __init__(self, seed: int, out_dir, config: GeneratorConfig = GeneratorConfig(),
                 labels=evaluation.DEFAULT_GRID, selections=core.ALL_SELECTIONS):
        self.seed = seed
        self.config = config
        self.labels = tuple(labels)
        self.selections = tuple(FeatureSelection(s) for s in selections)
        self.cv_seed = 0
        keys = paper_subset(self.labels, self.selections)
        order = np.random.default_rng(seed).permutation(len(keys))
        self.keys = [keys[i] for i in order]

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        self.panel = datagen.generate_panel(self.config)
        self.datasets, self.plans = {}, {}
        for selection in self.selections:
            dataset = core.build_dataset(self.panel, selection)
            self.datasets[selection.value] = dataset
            self.plans[selection.value] = evaluation.stratified_folds(
                dataset, FOLDS, self.cv_seed)
        self.specs = {label: evaluation.make_classifier_spec(label)
                      for label in self.labels}

    def run_round(self) -> list[Operation]:
        operations, self.outcomes = timed_folds(
            self.keys, self.specs, self.datasets, self.plans, self.cv_seed)
        failed_labels = {op.key[0] for op in operations if op.error is not None}
        cells: dict[tuple[str, str], list[float]] = {}
        for outcome in sorted(self.outcomes, key=lambda o: o.fold):
            cells.setdefault((outcome.label, outcome.selection), []).append(
                outcome.error)
        results = []
        for label in self.labels:
            if label in failed_labels:
                continue
            for selection in self.selections:
                errors = cells[(label, selection.value)]
                mean, sd = evaluation.summarize_errors(errors)
                results.append(evaluation.CvResult(
                    label=label, selection=selection.value, k=FOLDS,
                    seed=self.cv_seed, fold_errors=tuple(errors),
                    mean_error=mean, sd_error=sd))
        self.cv_results = results
        self.ranking = evaluation.rank_classifiers(results, self.selections)
        self.histograms = {
            selection: evaluation.correlation_histogram(self.datasets[selection])
            for selection in self.datasets}
        pca_selection = self.selections[0].value
        self.pca = evaluation.pca_study(
            evaluation.make_classifier_spec(PCA_LABEL),
            self.datasets[pca_selection], FOLDS, self.cv_seed)
        settings = {**self.config.settings(), "k": FOLDS,
                    "cv_seed": self.cv_seed}
        self.rendered = {
            "ranking": evaluation.render_ranking_csv(self.ranking, settings),
            "pca": evaluation.render_pca_csv(self.pca, settings),
            **{f"histogram_{s}": evaluation.render_histogram_csv(h, settings)
               for s, h in self.histograms.items()},
        }
        return operations

    def expected_failure(self, operation: Operation) -> bool:
        """Only the listed fold fits may fail, and only at the SMO cap."""
        label, selection, fold = operation.key
        return (isinstance(operation.error, NoConvergence)
                and PAPER_KEPT_FAILURES.get((label, selection)) == fold)


# ------------------------------------------------------------ large-panel


LARGE_CONFIG = dict(n_counterparties=20, n_days=250)
LARGE_ILLIQUID = 4
# labels whose cost grows with rows x queries. SVM, NN and BaggedTree are
# left out (one SVM-Gaussian fold fit alone takes about 30 s here), and so
# is LR: at this size its Newton fit stalls just above the gradient
# tolerance on some seeds' folds, so its failures would depend on the seed.
LARGE_EVERY_FOLD = ("LDA-FullCov", "LDA-DiagonalCov", "QDA-FullCov",
                    "QDA-DiagonalCov", "DT-Gini", "DT-Entropy", "DT-Twoing")
# the kNN and kernel-NB predicts cost 0.5 to 3 s per fold, so they run
# on the first LARGE_HEAVY_FOLDS folds of the plan only (100 operations)
LARGE_HEAVY = ("NB-norm-kernel", "NB-tria-kernel", "NB-epan-kernel",
               "KNN-Euclidean", "KNN-CityBlock", "KNN-Mahalanobis")
LARGE_HEAVY_FOLDS = 5


class LargePanel:
    """Cross-validation on a 20-name x 250-day panel, FS1, seeded plan.

    The panel arrives as a CSV written before set-up, in which the last
    LARGE_ILLIQUID names have no five-year rate on any day. Set-up reads
    it, imputes the missing rates, fits both baselines on the liquid
    names' records and builds the FS1 dataset and fold plan. Names i and
    i + n // 2 share a (region, sector, rating) bucket, so every illiquid
    name has a liquid name in its bucket.
    """

    name = "large-panel"

    def __init__(self, seed: int, out_dir, config: dict = LARGE_CONFIG,
                 n_illiquid: int = LARGE_ILLIQUID,
                 every_fold=LARGE_EVERY_FOLD, heavy=LARGE_HEAVY,
                 heavy_folds: int = LARGE_HEAVY_FOLDS):
        self.seed = seed
        self.config = GeneratorConfig(**config, seed=seed)
        self.n_illiquid = n_illiquid
        self.every_fold, self.heavy = tuple(every_fold), tuple(heavy)
        self.heavy_folds = heavy_folds
        self.csv_path = out_dir / f"large-panel-seed{seed}.csv"

    def prepare(self) -> None:
        """Write the input file; not part of any timed phase."""
        full = datagen.generate_panel(self.config)
        values = dict(full.values)
        s = values[core.S_COLUMN].copy()
        s[full.n_counterparties - self.n_illiquid:] = np.nan
        values[core.S_COLUMN] = s
        self.written = core.MarketPanel(counterparties=full.counterparties,
                                        dates=full.dates, values=values)
        datagen.write_panel(self.written, self.csv_path)

    def setup(self) -> None:
        selection = FeatureSelection.FS1
        self.panel = datagen.read_panel(self.csv_path)
        self.imputed = core.impute_five_year_rate(self.panel)
        names = self.panel.counterparties
        observed = ~self.panel.missing_s_mask().any(axis=1)
        liquid = np.flatnonzero(observed)
        self.categories = datagen.assign_categories(names)
        self.illiquid_categories = [self.categories[names[i]]
                                    for i in np.flatnonzero(~observed)]
        self.records = datagen.records_from_panel(
            core.MarketPanel(
                counterparties=tuple(names[i] for i in liquid),
                dates=self.panel.dates,
                values={c: v[liquid] for c, v in self.panel.values.items()}),
            self.categories)
        self.curve = {statistic: baselines.curve_mapping_table(self.records,
                                                               statistic)
                      for statistic in baselines.ProxyStatistic}
        self.cross_sectional = baselines.fit_cross_sectional(self.records)
        dataset = core.build_dataset(self.imputed, selection)
        self.datasets = {selection.value: dataset}
        self.plans = {selection.value: evaluation.stratified_folds(
            dataset, FOLDS, self.seed)}
        labels = self.every_fold + self.heavy
        self.specs = {label: evaluation.make_classifier_spec(label)
                      for label in labels}
        self.keys = [(label, selection.value, fold)
                     for fold in range(FOLDS) for label in labels
                     if label in self.every_fold or fold < self.heavy_folds]

    def run_round(self) -> list[Operation]:
        operations, self.outcomes = timed_folds(
            self.keys, self.specs, self.datasets, self.plans, self.seed)
        # the incumbent proxies for the illiquid names, to set beside the
        # classifiers' picks
        self.baseline_proxies = {
            **{f"curve-{statistic.value}": [
                table[tuple(c[f] for f in baselines.BUCKET_FIELDS)]
                for c in self.illiquid_categories]
               for statistic, table in self.curve.items()},
            "cross-sectional": [self.cross_sectional.predict(c)
                                for c in self.illiquid_categories]}
        return operations

    def expected_failure(self, operation: Operation) -> bool:
        return False


WORKLOADS = {w.name: w for w in (PaperStudy, LargePanel)}
