"""Independent reference computations and property checks.

Each check recomputes a program output with plain numpy, or tests a
property the method guarantees, and returns a list of problems (empty when
the output is right). The checks run after the timed phases.
"""
from __future__ import annotations

import math
import statistics

import numpy as np

from cdsproxy import baselines, core, neuralnet
from cdsproxy.bayes import KernelKind, LdaClassifier, NbClassifier, QdaClassifier
from cdsproxy.neighbors import KnnClassifier, Metric
from cdsproxy.neuralnet import Activation, NeuralNetClassifier
from cdsproxy.numerics import CovMode
from cdsproxy.svm import DEFAULT_KKT_TOL, SvmClassifier, SvmKernel
from cdsproxy.trees import BaggedTreeClassifier, DecisionTreeModel, bootstrap_rows

RIDGE = 1e-8                 # ridge factor of the program's covariance estimates
LOG_FLOOR = -745.0           # naive Bayes log-density floor
TIE = 1e-9                   # relative margin under which two scores tie
KNN_CHUNK = 64               # query rows per brute-force block


def _ridged(cov: np.ndarray) -> np.ndarray:
    d = cov.shape[0]
    return cov + RIDGE * np.trace(cov) / d * np.eye(d)


def _covariance(x: np.ndarray, mode: CovMode) -> np.ndarray:
    cov = np.atleast_2d(np.cov(x, rowvar=False))
    return np.diag(np.diag(cov)) if mode is CovMode.DIAGONAL else cov


def _log_priors(y: np.ndarray, n_classes: int) -> np.ndarray:
    counts = np.bincount(y, minlength=n_classes)
    return np.log(counts / counts.sum())


def _compare_argmax(what: str, reference: np.ndarray,
                    predicted: np.ndarray) -> list[str]:
    """Predicted labels must be the reference argmax wherever the top two
    reference scores do not tie."""
    top2 = np.sort(reference, axis=1)[:, -2:]
    scale = np.maximum(1.0, np.abs(top2).max(axis=1))
    clear = top2[:, 1] - top2[:, 0] > TIE * scale
    wrong = clear & (np.argmax(reference, axis=1) != predicted)
    if wrong.any():
        return [f"{what}: {int(wrong.sum())} of {wrong.size} predictions "
                f"differ from the numpy reference"]
    return []


def lda_scores(x_train, y_train, n_classes, mode, x):
    means = np.stack([x_train[y_train == j].mean(axis=0)
                      for j in range(n_classes)])
    cov = _ridged(_covariance(x_train, mode))
    weights = np.linalg.solve(cov, means.T).T
    offsets = -0.5 * (weights * means).sum(axis=1)
    return x @ weights.T + offsets + _log_priors(y_train, n_classes)


def qda_scores(x_train, y_train, n_classes, mode, x):
    out = np.empty((x.shape[0], n_classes))
    for j, log_prior in enumerate(_log_priors(y_train, n_classes)):
        rows = x_train[y_train == j]
        cov = _ridged(_covariance(rows, mode))
        diff = x - rows.mean(axis=0)
        mahal = (diff * np.linalg.solve(cov, diff.T).T).sum(axis=1)
        out[:, j] = -0.5 * (np.linalg.slogdet(cov)[1] + mahal) + log_prior
    return out


def _kernel(kind: KernelKind, u: np.ndarray) -> np.ndarray:
    if kind is KernelKind.NORMAL:
        return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    if kind is KernelKind.TRIANGULAR:
        return np.clip(1.0 - np.abs(u), 0.0, None)
    return 0.75 * np.clip(1.0 - u * u, 0.0, None)


def nb_scores(x_train, y_train, n_classes, kind, bandwidth, x):
    out = np.empty((x.shape[0], n_classes))
    for j, log_prior in enumerate(_log_priors(y_train, n_classes)):
        rows = x_train[y_train == j]
        total = np.full(x.shape[0], log_prior)
        for f in range(x.shape[1]):
            u = (x[:, f][:, None] - rows[:, f][None, :]) / bandwidth
            density = _kernel(kind, u).mean(axis=1) / bandwidth
            with np.errstate(divide="ignore"):
                total += np.maximum(np.log(density), LOG_FLOOR)
        out[:, j] = total
    return out


def knn_predict(x_train, y_train, n_classes, k, metric, x):
    """Brute-force neighbours by np.linalg.norm with a stable argsort.

    Returns the predicted labels and a mask of the rows whose k-th and
    (k+1)-th distances differ by a rounding error, where two correct
    computations may order them differently. Rows where the two distances
    are exactly equal are not masked: the stable order sends such a tie
    to the lower training index, and the program must do the same.
    """
    if metric is Metric.MAHALANOBIS:
        lower = np.linalg.cholesky(_ridged(np.cov(x_train, rowvar=False)))
        x_train = np.linalg.solve(lower, x_train.T).T
        x = np.linalg.solve(lower, x.T).T
    else:
        means = x_train.mean(axis=0)
        scales = np.maximum(x_train.std(axis=0, ddof=1), 1e-12)
        x_train, x = (x_train - means) / scales, (x - means) / scales
    order_norm = 1 if metric is Metric.CITYBLOCK else None
    labels = np.empty(x.shape[0], dtype=int)
    near_tie = np.zeros(x.shape[0], dtype=bool)
    for lo in range(0, x.shape[0], KNN_CHUNK):
        block = x[lo:lo + KNN_CHUNK]
        dists = np.linalg.norm(block[:, None, :] - x_train[None, :, :],
                               ord=order_norm, axis=2)
        for i, row in enumerate(dists):
            order = np.argsort(row, kind="stable")
            votes = np.bincount(y_train[order[:k]], minlength=n_classes)
            labels[lo + i] = int(np.argmax(votes))
            if k < row.size:
                kth, nxt = row[order[k - 1]], row[order[k]]
                near_tie[lo + i] = 0.0 < nxt - kth <= TIE * max(1.0, kth)
    return labels, near_tie


def check_classifier_predictions(model, x_train, y_train, x, predicted,
                                 what: str) -> list[str]:
    """DA, kNN and naive Bayes predictions against the numpy references."""
    n_classes = len(model.class_names)
    if isinstance(model, LdaClassifier):
        ref = lda_scores(x_train, y_train, n_classes, model.mode, x)
    elif isinstance(model, QdaClassifier):
        ref = qda_scores(x_train, y_train, n_classes, model.mode, x)
    elif isinstance(model, NbClassifier):
        ref = nb_scores(x_train, y_train, n_classes, model.kernel,
                        model.bandwidth, x)
    elif isinstance(model, KnnClassifier):
        labels, near_tie = knn_predict(x_train, y_train, n_classes, model.k,
                                       model.metric, x)
        wrong = ~near_tie & (labels != predicted)
        if wrong.any():
            return [f"{what}: {int(wrong.sum())} of {wrong.size} kNN "
                    f"predictions differ from the brute-force reference"]
        return []
    else:
        return []
    return _compare_argmax(what, ref, predicted)


# ------------------------------------------------------------------ SVM


def _gram(kind: SvmKernel, scale, degree, x: np.ndarray) -> np.ndarray:
    inner = x @ x.T
    if kind is SvmKernel.LINEAR:
        return inner
    if kind is SvmKernel.POLYNOMIAL:
        return (1.0 + inner) ** degree
    sq = np.diag(inner)[:, None] + np.diag(inner)[None, :] - 2.0 * inner
    return np.exp(-scale * np.maximum(sq, 0.0))


def svm_kkt_gap(machine) -> tuple[float, list[str]]:
    """Recompute the dual gradient from alpha and the Gram matrix; return
    the maximal KKT violation and any box or equality breach."""
    x, y, alpha, cost = machine.x_train, machine.y_train, machine.alpha, machine.cost
    kernel = machine.kernel
    gram = _gram(kernel.kind, kernel.scale, kernel.degree, x)
    problems = []
    if alpha.min() < 0.0 or alpha.max() > cost:
        problems.append("alpha leaves the box [0, C]")
    if abs(float(alpha @ y)) > 1e-9 * cost * alpha.size:
        problems.append(f"sum alpha_i y_i = {float(alpha @ y):.3e} != 0")
    grad = y * (gram @ (alpha * y)) - 1.0
    eps = 1e-12 * cost
    pos = y > 0.0
    up = np.where(pos, alpha < cost - eps, alpha > eps)
    low = np.where(pos, alpha > eps, alpha < cost - eps)
    minus_yg = -y * grad
    gap = float(minus_yg[up].max(initial=-np.inf)
                - minus_yg[low].min(initial=np.inf))
    return gap, problems


def check_svm(model: SvmClassifier, what: str,
              tol: float = DEFAULT_KKT_TOL) -> list[str]:
    problems = []
    for m, machine in enumerate(model.machines):
        gap, breaches = svm_kkt_gap(machine)
        # the program updates its gradient incrementally; allow the
        # rounding that accumulates over its pair updates
        slack = 1e-12 * max(1, machine.n_updates) * max(1.0, np.abs(
            machine.alpha).max())
        if gap > tol + slack:
            breaches.append(f"recomputed KKT gap {gap:.3e} > tol {tol}")
        problems += [f"{what} machine {m}: {b}" for b in breaches]
    return problems


# ------------------------------------------------------------------- NN


def _activation(kind: Activation, v: np.ndarray) -> np.ndarray:
    if kind is Activation.TAN_SIGMOID:
        return np.tanh(v)
    if kind is Activation.LINEAR:
        return v
    return v / (1.0 + np.abs(v))


def nn_loss(w1, b1, w2, b2, kind: Activation, x, y) -> float:
    logits = _activation(kind, x @ w1.T + b1) @ w2.T + b2
    top = logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(logits - top).sum(axis=1)) + top[:, 0]
    return float(np.mean(log_norm - logits[np.arange(len(y)), y]))


def check_nn(model: NeuralNetClassifier, x_train, y_train, what: str) -> list[str]:
    """The final training loss must lie below the loss at initialisation."""
    means = x_train.mean(axis=0)
    scales = np.maximum(x_train.std(axis=0, ddof=1), 1e-12)
    z = (x_train - means) / scales
    start = neuralnet.initial_params(x_train.shape[1], model.hidden_units,
                                     model.n_classes, model.config.seed)
    p = model.params
    first = nn_loss(start.w1, start.b1, start.w2, start.b2, model.activation,
                    z, y_train)
    last = nn_loss(p.w1, p.b1, p.w2, p.b2, model.activation, z, y_train)
    if not last < first:
        return [f"{what}: training loss {last:.6f} not below initial {first:.6f}"]
    return []


# ---------------------------------------------------------------- trees


def route(tree: DecisionTreeModel, x: np.ndarray) -> np.ndarray:
    """Leaf index of every row, following the node table level by level."""
    feature = np.array([n.feature for n in tree.nodes])
    threshold = np.array([n.threshold for n in tree.nodes])
    left = np.array([n.left for n in tree.nodes])
    right = np.array([n.right for n in tree.nodes])
    leaf = np.array([n.is_leaf for n in tree.nodes])
    at = np.zeros(x.shape[0], dtype=int)
    rows = np.arange(x.shape[0])
    while not leaf[at].all():
        inner = ~leaf[at]
        go_left = x[rows, np.where(inner, feature[at], 0)] < threshold[at]
        at = np.where(inner, np.where(go_left, left[at], right[at]), at)
    return at


def check_tree(tree: DecisionTreeModel, x_train, y_train, what: str) -> list[str]:
    """Every leaf holds the majority label of the rows routed to it."""
    at = route(tree, x_train)
    bad = 0
    for index in np.unique(at):
        counts = np.bincount(y_train[at == index], minlength=tree.n_classes)
        if int(np.argmax(counts)) != tree.nodes[index].label:
            bad += 1
    return [f"{what}: {bad} leaves do not hold their majority label"] if bad else []


def check_tree_model(model, x_train, y_train, what: str) -> list[str]:
    if isinstance(model, DecisionTreeModel):
        return check_tree(model, x_train, y_train, what)
    problems = []
    for t, tree in enumerate(model.trees):
        rows = bootstrap_rows(len(y_train), model.seed, t)
        problems += check_tree(tree, x_train[rows], y_train[rows],
                               f"{what} tree {t}")
    return problems


def check_model(model, x_train, y_train, x, predicted, what: str) -> list[str]:
    """Dispatch to the reference or property check of the model's family."""
    if isinstance(model, SvmClassifier):
        return check_svm(model, what)
    if isinstance(model, NeuralNetClassifier):
        return check_nn(model, x_train, y_train, what)
    if isinstance(model, (DecisionTreeModel, BaggedTreeClassifier)):
        return check_tree_model(model, x_train, y_train, what)
    return check_classifier_predictions(model, x_train, y_train, x, predicted,
                                        what)


# ------------------------------------------------------- PCA, correlations


def check_pca(basis, study, x: np.ndarray) -> list[str]:
    """Eigenvalues against eigvalsh; cumulative explained variance rises to
    one; a rotation-invariant label at m = d scores its raw accuracy."""
    problems = []
    ref = np.clip(np.linalg.eigvalsh(np.cov(x, rowvar=False))[::-1], 0.0, None)
    if not np.allclose(basis.eigenvalues, ref, rtol=1e-8,
                       atol=1e-10 * ref.max()):
        problems.append("PCA eigenvalues differ from np.linalg.eigvalsh")
    explained = np.asarray(study.variance_explained)
    if np.any(np.diff(explained) < 0.0) or abs(explained[-1] - 1.0) > 1e-12:
        problems.append("explained variance is not nondecreasing up to 1")
    if study.component_errors[-1] != study.raw_error:
        problems.append(f"{study.label} at m = d: error "
                        f"{study.component_errors[-1]} != raw {study.raw_error}")
    return problems


def check_correlations(histogram, x: np.ndarray, what: str) -> list[str]:
    ref = np.corrcoef(x, rowvar=False)[np.triu_indices(x.shape[1], 1)]
    values = np.asarray(histogram.values)
    if values.shape != ref.shape or not np.allclose(values, ref, rtol=0,
                                                    atol=1e-12):
        return [f"{what}: correlations differ from np.corrcoef"]
    edges = np.asarray(histogram.bin_edges)
    counts, _ = np.histogram(ref, bins=edges)
    near_edge = np.abs(ref[:, None] - edges[None, :]).min(axis=1) < 1e-12
    if not near_edge.any() and tuple(counts) != tuple(histogram.counts):
        return [f"{what}: histogram counts differ from the reference"]
    return []


def check_ranking(table, results) -> list[str]:
    """Rows hold each label's mean and sd accuracy, best row first."""
    by_label: dict[str, list[float]] = {}
    for res in results:
        by_label.setdefault(res.label, []).append(1.0 - res.mean_error)
    expected = sorted(
        ((-statistics.fmean(a), statistics.pstdev(a), label)
         for label, a in by_label.items()))
    got = [(-row.mean_accuracy, row.sd_accuracy, row.label)
           for row in table.rows]
    if [g[2] for g in got] != [e[2] for e in expected] or not np.allclose(
            [g[:2] for g in got], [e[:2] for e in expected], atol=1e-12):
        return ["ranking differs from the recomputed mean/sd order"]
    return []


# ------------------------------------------- panel input and baseline checks


def check_round_trip(read: core.MarketPanel, written: core.MarketPanel) -> list[str]:
    """The CSV reproduces the written panel exactly, NaN in the same cells."""
    if read.counterparties != written.counterparties or read.dates != written.dates:
        return ["CSV round trip changed the names or dates"]
    for col in core.PANEL_COLUMNS:
        a, b = read.values[col], written.values[col]
        if not (np.array_equal(np.isnan(a), np.isnan(b))
                and np.array_equal(a[~np.isnan(a)], b[~np.isnan(b)])):
            return [f"CSV round trip changed column {col}"]
    return []


def check_imputation(read: core.MarketPanel, imputed: core.MarketPanel) -> list[str]:
    """Filled rates are exp of a least-squares fit of log s on FS5; the
    observed rates are untouched, bit for bit."""
    s = read.values[core.S_COLUMN].reshape(-1)
    filled = imputed.values[core.S_COLUMN].reshape(-1)
    miss = np.isnan(s)
    design = np.column_stack(
        [np.ones(s.size)] + [read.values[c].reshape(-1)
                             for c in core.FeatureSelection.FS5.columns])
    beta = np.linalg.lstsq(design[~miss], np.log(s[~miss]), rcond=None)[0]
    problems = []
    if not np.array_equal(filled[~miss], s[~miss]):
        problems.append("imputation changed an observed rate")
    if not np.allclose(filled[miss], np.exp(design[miss] @ beta), rtol=1e-6):
        problems.append("imputed rates differ from the lstsq reference")
    return problems


def check_curve_mapping(records, tables) -> list[str]:
    groups: dict[tuple, list[float]] = {}
    for r in records:
        groups.setdefault((r.region, r.sector, r.rating), []).append(r.spread)
    reference = {baselines.ProxyStatistic.MEAN: np.mean,
                 baselines.ProxyStatistic.MEDIAN: np.median}
    for statistic, table in tables.items():
        if set(table) != set(groups):
            return ["curve mapping buckets differ from the records"]
        for key, spreads in groups.items():
            if not math.isclose(table[key], float(reference[statistic](spreads)),
                                rel_tol=1e-12):
                return [f"curve mapping {statistic.value} of {key} differs"]
    return []


def cross_sectional_reference(records, categories):
    """exp of the lstsq fit on the dummy design, at the given categories."""
    fields = baselines.CATEGORY_FIELDS
    levels = {f: sorted({getattr(r, f) for r in records}) for f in fields}
    columns = [(f, level) for f in fields for level in levels[f][1:]]

    def design(rows):
        return np.array([[1.0] + [float(row[f] == level) for f, level in columns]
                         for row in rows])

    train = design([r.categories() for r in records])
    beta = np.linalg.lstsq(train, np.log([r.spread for r in records]),
                           rcond=None)[0]
    return np.exp(design(categories) @ beta)


def check_cross_sectional(model, records, categories) -> list[str]:
    wanted = [r.categories() for r in records] + list(categories)
    ref = cross_sectional_reference(records, wanted)
    got = np.array([model.predict(c) for c in wanted])
    if not np.allclose(got, ref, rtol=1e-9):
        return ["cross-sectional proxies differ from the lstsq reference"]
    return []
