"""Straightforward versions of the SVM, NN and tree inner loops, used only
by tests.

`pairwise_ascent` rebuilds its whole state on every iteration, as the
loop in `cdsproxy.svm` did before it was made to update only what
changes. The NN passes make a new array for every operation, where
`cdsproxy.neuralnet` works in place. `interior_point` is the interior
point on the dense Q = yy' * K (`label_product`), the reference for
`cdsproxy.svm`'s interior point through a feature map, which has no dense
twin in `cdsproxy`: the two take the same iterations to the same bound
sets, with alphas within 1e-6 C. `best_split` and `fit_tree` sort every
feature at every node and evaluate the float score of every candidate, as
`cdsproxy.trees` did before it presorted once per fit and screened the
candidates by integer counts. `twoing_proxy` keeps a running (K x columns)
count of every class for each feature, as `cdsproxy.trees` did before it
read the columns on which each class is ahead of its share from the
feature's order by class. `nb_scores_batch` scores naive Bayes on a
(queries x class rows x d) tensor with a new array for every operation,
where `cdsproxy.bayes` tiles the class rows and makes each block's kernel
terms in place in one (class rows x queries x d) temporary; both work in
the bandwidth's units and apply h and the kernel's constant after the sum
over the class rows. `knn_distances` and `knn_scores_batch` form the kNN
distances row-major, as a (queries x training rows x d) difference whose
last axis is summed in ascending feature order by an explicit loop, where
`cdsproxy.neighbors` works on feature-major rows, and rank every training
row by a stable sort. The tests swap them in and require the fitted
models, or the scores, to agree bit for bit.

`lbfgs_direction` is the two-loop L-BFGS recursion, which
`cdsproxy.neuralnet` replaced by the compact form of the same inverse
Hessian; the two round differently, so the tests require the directions
to agree to a relative 1e-12.
"""
import math

import numpy as np

from cdsproxy import numerics as nm
from cdsproxy.bayes import LOG_DENSITY_FLOOR, KernelKind
from cdsproxy.core import Dataset
from cdsproxy.errors import (
    BadConfig,
    NoConvergence,
    TooFewSamples,
)
from cdsproxy.neighbors import Metric
from cdsproxy.neuralnet import Activation, NetParams, activation_value
from cdsproxy.svm import (
    _IP_MAX_ITERATIONS,
    _IP_STEP,
    _IP_TOL,
    _SNAP,
    _TAU,
    BinarySvm,
    _max_step,
)
from cdsproxy.trees import (
    _GAIN_SLACK,
    DEFAULT_MAX_SPLITS,
    DecisionTreeModel,
    SplitCriterion,
    TreeNode,
)


def pairwise_ascent(x, y, kernel, cost, tol, max_updates, k_mat, minus_yg,
                    alpha, ip_iterations, active_set_rounds=0):
    """Pairwise ascent that forms Q = yy' * K and updates the gradient
    through it, and rebuilds the gradient sign, the index sets and
    -y * grad with whole-vector numpy calls on every update."""
    k_diag = np.diag(k_mat).copy()
    q = (y[:, None] * y[None, :]) * k_mat

    grad = -y * minus_yg
    pos = y > 0.0
    eps = 1e-12 * cost
    updates = 0
    gap = np.inf
    while True:
        up = np.where(pos, alpha < cost - eps, alpha > eps)
        low = np.where(pos, alpha > eps, alpha < cost - eps)
        minus_yg = -y * grad
        up_vals = np.where(up, minus_yg, -np.inf)
        i = int(np.argmax(up_vals))
        m_val = up_vals[i]
        low_vals = np.where(low, minus_yg, np.inf)
        big_m = float(low_vals.min())
        gap = m_val - big_m
        if gap <= tol:
            break
        if updates >= max_updates:
            raise NoConvergence(
                f"KKT gap {gap:.3e} > {tol} after {max_updates} pair updates")
        cand = low & (minus_yg < m_val)
        b_vec = m_val - minus_yg
        a_vec = np.maximum(k_diag[i] + k_diag - 2.0 * k_mat[i], _TAU)
        gain = np.where(cand, b_vec * b_vec / a_vec, -np.inf)
        j = int(np.argmax(gain))
        if not cand[j]:
            break
        ai_old, aj_old = alpha[i], alpha[j]
        quad = max(k_diag[i] + k_diag[j] - 2.0 * k_mat[i, j], _TAU)
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = ai_old - aj_old
            lo_b, hi_b = max(0.0, diff), min(cost, cost + diff)
            ai_new = min(max(ai_old + delta, lo_b), hi_b)
            aj_new = ai_new - diff
        else:
            delta = (grad[i] - grad[j]) / quad
            total = ai_old + aj_old
            lo_b, hi_b = max(0.0, total - cost), min(cost, total)
            ai_new = min(max(ai_old - delta, lo_b), hi_b)
            aj_new = total - ai_new
        alpha[i], alpha[j] = ai_new, aj_new
        grad += q[:, i] * (ai_new - ai_old) + q[:, j] * (aj_new - aj_old)
        updates += 1

    u = y * (grad + 1.0)
    free = (alpha > eps) & (alpha < cost - eps)
    if free.any():
        bias = float((y[free] - u[free]).mean())
    else:
        at_zero, at_cost = alpha <= eps, alpha >= cost - eps
        b_vals = y - u
        lower = b_vals[np.where(pos, at_zero, at_cost)].max(initial=-np.inf)
        upper = b_vals[np.where(pos, at_cost, at_zero)].min(initial=np.inf)
        if np.isfinite(lower) and np.isfinite(upper):
            bias = 0.5 * (lower + upper)
        elif np.isfinite(lower):
            bias = lower
        elif np.isfinite(upper):
            bias = upper
        else:
            bias = 0.0
    return BinarySvm(alpha=alpha, bias=bias, x_train=x, y_train=y, kernel=kernel,
                     cost=cost, kkt_gap=float(gap), n_updates=updates,
                     ip_iterations=ip_iterations,
                     active_set_rounds=active_set_rounds)


def label_product(y, k_mat):
    """Q = yy' * K, the Hessian of the dual."""
    return (y[:, None] * y[None, :]) * k_mat


def interior_point(q, y, cost):
    """The dense interior point on Q, the reference for svm._interior_point,
    which solves through a feature-map factor of K instead: each iteration
    factors Q + diag(z/a + w/s) once through numerics.spd_solver, the
    diagonal going onto q's own for the factorisation only, and each
    direction solves (Q + diag(z/a + w/s)) [u, v] = [g, y] through that
    factor."""
    n = y.size
    q_diag = q.diagonal().copy()
    r_scale = 1.0 + cost * float(q_diag.max())
    alpha = np.full(n, 0.5 * cost)
    s = alpha.copy()
    z, w = np.ones(n), np.ones(n)
    b = 0.0
    iterations = 0
    while True:
        r_dual = q @ alpha - 1.0 + b * y - z + w
        r_eq = float(y @ alpha)
        mu = float(alpha @ z + s @ w) / (2 * n)
        residual = max(float(np.abs(r_dual).max()) / r_scale, abs(r_eq) / cost,
                       mu / cost)
        if residual <= _IP_TOL:
            break
        if iterations == _IP_MAX_ITERATIONS:
            raise NoConvergence(f"interior point residual {residual:.3e} > "
                                f"{_IP_TOL} after {iterations} iterations")
        q.flat[::n + 1] += z / alpha + w / s
        solve = nm.spd_solver(q, "K + D")
        q.flat[::n + 1] = q_diag

        def direction(sigma_mu, c_z, c_w):
            t_z, t_w = (sigma_mu - c_z) / alpha, (sigma_mu - c_w) / s
            g = -r_dual + t_z - z - t_w + w
            u, v = solve(np.column_stack([g, y])).T
            db = (y @ u + r_eq) / (y @ v)
            da = u - v * db
            return da, db, t_z - z - z / alpha * da, t_w - w + w / s * da

        def step(da, dz, dw):
            return min(_max_step(alpha, da), _max_step(s, -da),
                       _max_step(z, dz), _max_step(w, dw))

        da, db, dz, dw = direction(0.0, 0.0, 0.0)
        t = min(1.0, step(da, dz, dw))
        mu_aff = float((alpha + t * da) @ (z + t * dz)
                       + (s - t * da) @ (w + t * dw)) / (2 * n)
        da, db, dz, dw = direction((mu_aff / mu) ** 3 * mu, da * dz, -da * dw)
        t = min(1.0, _IP_STEP * step(da, dz, dw))
        alpha += t * da
        s -= t * da
        z += t * dz
        w += t * dw
        b += t * db
        iterations += 1
    at_zero, at_cost = alpha <= _SNAP * cost, s <= _SNAP * cost
    alpha[at_zero], alpha[at_cost] = 0.0, cost
    free = ~(at_zero | at_cost)
    if free.any():
        alpha[free] -= y[free] * (float(y @ alpha) / np.count_nonzero(free))
    np.clip(alpha, 0.0, cost, out=alpha)
    return alpha, iterations


def _activation_derivative(kind, v):
    if kind is Activation.TAN_SIGMOID:
        t = np.tanh(v)
        return 1.0 - t * t
    if kind is Activation.LINEAR:
        return np.ones_like(v)
    return 1.0 / (1.0 + np.abs(v)) ** 2


def forward_state(params, activation, xt, picks):
    """Class-major forward pass over the columns of xt, with a new array
    for every operation and the true-class entries reached by (y, columns)
    indexing."""
    y, cols = np.divmod(picks, xt.shape[1])
    pre = params.w1 @ xt + params.b1[:, None]
    hidden = activation_value(activation, pre)
    logits = params.w2 @ hidden + params.b2[:, None]
    shifted = logits - logits.max(axis=0)
    expd = np.exp(shifted)
    norm = expd.sum(axis=0)
    loss = float((np.log(norm) - shifted[y, cols]).mean())
    return loss, pre, hidden, expd, norm


def gradient_from_state(params, activation, xt, picks, state):
    """Class-major backward pass that evaluates f'(pre) from pre for every
    activation and reaches the true-class entries by (y, columns)
    indexing."""
    y, cols = np.divmod(picks, xt.shape[1])
    _, pre, hidden, expd, norm = state
    n = xt.shape[1]
    d_logits = expd / norm
    d_logits[y, cols] -= 1.0
    d_logits = d_logits / n
    g_w2 = d_logits @ hidden.T
    g_b2 = d_logits.sum(axis=1)
    d_pre = (params.w2.T @ d_logits) * _activation_derivative(activation, pre)
    g_w1 = d_pre @ xt.T
    g_b1 = d_pre.sum(axis=1)
    return NetParams(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)


def lbfgs_direction(g, pairs):
    """-H g by the two-loop recursion over the stored (s, y, 1/s'y) pairs,
    oldest first, with H0 = (s'y / y'y) I from the newest pair (Nocedal and
    Wright, Numerical Optimization, 2006, Algorithm 7.4)."""
    q = -g
    coefs = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        coefs.append(a)
    if pairs:
        _, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), a in zip(pairs, reversed(coefs)):
        q += (a - rho * float(y @ q)) * s
    return q


def _gini_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    frac = counts / totals[:, None]
    return 1.0 - (frac * frac).sum(axis=1)


def _entropy_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    frac = counts / totals[:, None]
    terms = np.where(frac > 0.0, frac * np.log(np.where(frac > 0.0, frac, 1.0)), 0.0)
    return -terms.sum(axis=1)


def best_split(x: np.ndarray, y: np.ndarray, n_classes: int,
               criterion: SplitCriterion) -> tuple[int, float, float] | None:
    """Exhaustive scan of every (feature, midpoint) candidate.

    Returns the maximal-score rule as (feature, threshold, score); score
    ties go to the lower feature index, then the lower threshold. Returns
    None for single-class input and when no feature has two distinct
    values.
    """
    criterion = SplitCriterion(criterion)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    n = x.shape[0]
    if n < 2 or np.all(y == y[0]):
        return None
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    parent_counts = onehot.sum(axis=0)
    if criterion is SplitCriterion.GINI:
        parent_score = _gini_from_counts(parent_counts[None, :], np.array([float(n)]))[0]
    elif criterion is SplitCriterion.ENTROPY:
        parent_score = _entropy_from_counts(parent_counts[None, :], np.array([float(n)]))[0]
    best: tuple[int, float, float] | None = None
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        values = x[order, f]
        boundaries = np.flatnonzero(values[:-1] < values[1:])
        if boundaries.size == 0:
            continue
        left_counts = np.cumsum(onehot[order], axis=0)[boundaries]
        right_counts = parent_counts[None, :] - left_counts
        n_left = boundaries + 1.0
        n_right = n - n_left
        if criterion is SplitCriterion.TWOING:
            diff = np.abs(right_counts / n_right[:, None]
                          - left_counts / n_left[:, None]).sum(axis=1)
            scores = (n_left / n) * (n_right / n) * diff * diff
        else:
            child = (_gini_from_counts if criterion is SplitCriterion.GINI
                     else _entropy_from_counts)
            scores = parent_score - ((n_left / n) * child(left_counts, n_left)
                                     + (n_right / n) * child(right_counts, n_right))
        k = int(np.argmax(scores))        # first (lowest threshold) maximum
        if best is None or scores[k] > best[2]:
            thr = 0.5 * (values[boundaries[k]] + values[boundaries[k] + 1])
            best = (f, float(thr), float(scores[k]))
    return best


def _majority_label(y: np.ndarray, n_classes: int) -> int:
    return int(np.argmax(np.bincount(y, minlength=n_classes)))


def fit_tree(train: Dataset, criterion: SplitCriterion = SplitCriterion.GINI,
             max_splits: int = DEFAULT_MAX_SPLITS) -> DecisionTreeModel:
    """Greedy breadth-first growth under a budget of internal nodes."""
    if train.n == 0:
        raise TooFewSamples("cannot fit on zero samples")
    if max_splits < 1:
        raise BadConfig(f"max_splits must be >= 1, got {max_splits}")
    criterion = SplitCriterion(criterion)
    nodes: list[TreeNode] = [TreeNode()]      # placeholder for the root
    queue: list[tuple[int, np.ndarray]] = [(0, np.arange(train.n))]
    splits_used = 0
    at = 0
    while at < len(queue):
        node_id, rows = queue[at]
        at += 1
        y_node = train.y[rows]
        if splits_used < max_splits:
            rule = best_split(train.x[rows], y_node, train.n_classes, criterion)
            if rule is not None:
                feature, threshold, score = rule
                if criterion is not SplitCriterion.TWOING:
                    assert score >= -_GAIN_SLACK, (
                        f"negative purity gain {score} during growth")
                go_left = train.x[rows, feature] < threshold
                left_id, right_id = len(nodes), len(nodes) + 1
                nodes[node_id] = TreeNode(feature=feature, threshold=threshold,
                                          left=left_id, right=right_id)
                nodes.append(TreeNode())
                nodes.append(TreeNode())
                queue.append((left_id, rows[go_left]))
                queue.append((right_id, rows[~go_left]))
                splits_used += 1
                continue
        nodes[node_id] = TreeNode(label=_majority_label(y_node, train.n_classes))
    return DecisionTreeModel(nodes=nodes, criterion=criterion,
                             max_splits=max_splits, n_classes=train.n_classes,
                             n_features=train.d)


def twoing_proxy(class_n: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """R = D^2 / (nL nR) with D = sum_k |N_k nL - m cL_k| at every column
    of every row of labels, for nodes laid end to end with the given
    (nodes x K) class counts; the last column of a node divides by nR = 1.
    Each row takes K passes: N_k nL - m cL_k is the running sum of N_k over
    the left rows less m for each row of class k."""
    size = class_n.sum(axis=1)
    first = np.cumsum(size) - size
    node = np.repeat(np.arange(size.size), size)
    n_left = np.arange(1, size.sum() + 1) - first[node]
    n_right = size[node] - n_left
    n_right[first + size - 1] = 1
    steps = np.take(class_n.T, node, axis=1).astype(np.int64)
    own_steps = steps - size[node]
    classes = np.arange(class_n.shape[1])[:, None]
    spread = np.empty(labels.shape)
    for f in range(labels.shape[0]):
        dev = np.where(labels[f] == classes, own_steps, steps)
        np.cumsum(dev, axis=1, out=dev)
        spread[f] = np.abs(dev).sum(axis=0)
    spread *= spread
    spread /= n_left * n_right
    return spread


# ------------------------------------------------ panel CSV and fold dealing
#
# `write_panel`, `_parse_cell` and `read_panel` format and parse the panel CSV
# one cell at a time, and `stratified_folds` deals each class's rows to the
# folds one row at a time, as `cdsproxy.datagen` and `cdsproxy.evaluation`
# did before they worked on whole columns and whole classes. The tests
# require the same files, the same arrays, the same fold assignments and
# the same faults.

import csv  # noqa: E402
from array import array  # noqa: E402

from cdsproxy.core import (  # noqa: E402
    PANEL_COLUMNS,
    PD_COLUMNS,
    S_COLUMN,
    MarketPanel,
)
from cdsproxy.errors import EmptyClass, RangeViolation, SchemaViolation  # noqa: E402
from cdsproxy.evaluation import FoldPlan  # noqa: E402

_PANEL_HEADER = ("counterparty", "date") + PANEL_COLUMNS


def write_panel(panel: MarketPanel, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_PANEL_HEADER)
        for i, name in enumerate(panel.counterparties):
            for j, date in enumerate(panel.dates):
                row = [name, date]
                for col in PANEL_COLUMNS:
                    v = panel.values[col][i, j]
                    row.append("" if not np.isfinite(v) else repr(float(v)))
                writer.writerow(row)


def _parse_cell(text: str, row_number: int, column: str) -> float:
    if text == "":
        if column == S_COLUMN:
            return float("nan")
        raise SchemaViolation(
            f"row {row_number}, column {column}: empty value")
    try:
        value = float(text)
    except ValueError as exc:
        raise SchemaViolation(
            f"row {row_number}, column {column}: not a number: {text!r}"
        ) from exc
    if column == S_COLUMN:
        if not np.isnan(value) and value <= 0.0:
            raise RangeViolation(
                f"row {row_number}, column {column}: spread must be > 0, "
                f"got {value}")
    elif column in PD_COLUMNS:
        if not 0.0 <= value <= 1.0:
            raise RangeViolation(
                f"row {row_number}, column {column}: probability outside "
                f"[0, 1]: {value}")
    else:
        if not value >= 0.0:
            raise RangeViolation(
                f"row {row_number}, column {column}: volatility must be "
                f">= 0, got {value}")
    return value


def read_panel(path) -> MarketPanel:
    """Load and validate a panel written by write_panel.

    A file without the s column still loads (its five-year rates are
    simply missing); any other absent column is a schema violation, as is
    an incomplete (counterparty, date) grid.
    """
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaViolation("panel file is empty") from None
        missing = [c for c in _PANEL_HEADER if c not in header]
        if missing != [] and missing != [S_COLUMN]:
            raise SchemaViolation(f"panel file lacks columns: {missing}")
        extra = [c for c in header if c not in _PANEL_HEADER]
        if extra:
            raise SchemaViolation(f"panel file has unknown columns: {extra}")
        position = {c: header.index(c) for c in header}
        fields = [position.get(col) for col in PANEL_COLUMNS]
        # every row's parsed cells in one flat buffer, in PANEL_COLUMNS
        # order, and each (name, date) key's row in it
        cells = array("d")
        row_of: dict[tuple[str, str], int] = {}
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaViolation(
                    f"row {row_number}: expected {len(header)} fields, "
                    f"got {len(row)}")
            key = (row[position["counterparty"]], row[position["date"]])
            if key in row_of:
                raise SchemaViolation(
                    f"row {row_number}: duplicate observation for {key}")
            row_of[key] = len(row_of)
            for col, field in zip(PANEL_COLUMNS, fields):
                cells.append(float("nan") if field is None
                             else _parse_cell(row[field], row_number, col))
    if not row_of:
        raise SchemaViolation("panel file has no observations")
    names = tuple(sorted({k[0] for k in row_of}))
    dates = tuple(sorted({k[1] for k in row_of}))
    if len(row_of) != len(names) * len(dates):
        for name in names:
            for date in dates:
                if (name, date) not in row_of:
                    raise SchemaViolation(
                        f"missing observation for counterparty {name!r} on "
                        f"{date}")
    # the keys are distinct and fill the grid, so every cell is written once
    name_at = {name: i for i, name in enumerate(names)}
    date_at = {date: j for j, date in enumerate(dates)}
    flat = np.frombuffer(cells).reshape(len(row_of), len(PANEL_COLUMNS))
    at = (np.fromiter((name_at[k[0]] for k in row_of), int, len(row_of)),
          np.fromiter((date_at[k[1]] for k in row_of), int, len(row_of)))
    values = {}
    for c, col in enumerate(PANEL_COLUMNS):
        values[col] = np.empty((len(names), len(dates)))
        values[col][at] = flat[:, c]
    return MarketPanel(counterparties=names, dates=dates, values=values)


def stratified_folds(dataset: Dataset, k: int, seed: int = 0) -> FoldPlan:
    """Per-class seeded shuffle, then one global round-robin dealing pass."""
    n = dataset.n
    if k < 2 or k > n:
        raise BadConfig(f"fold count must satisfy 2 <= K <= {n}, got {k}")
    rng = np.random.default_rng(seed)
    assignment = np.full(n, -1, dtype=int)
    counter = 0
    for j in range(dataset.n_classes):
        rows = np.flatnonzero(dataset.y == j)
        if rows.size == 0:
            raise EmptyClass(
                f"class {dataset.class_names[j]!r} has no samples to deal")
        for row in rows[rng.permutation(rows.size)]:
            assignment[row] = counter % k
            counter += 1
    return FoldPlan(k=k, assignment=assignment)


def _kernel_values(kind, h, t):
    if kind is KernelKind.NORMAL:
        return np.exp(t * t * (-1.0 / (2.0 * h * h)))
    if kind is KernelKind.TRIANGULAR:
        return np.maximum(h - np.abs(t), 0.0)
    return np.maximum(h * h - t * t, 0.0)


def _density_scale(kind, h, n):
    if kind is KernelKind.NORMAL:
        return 1.0 / (n * h * math.sqrt(2.0 * math.pi))
    if kind is KernelKind.TRIANGULAR:
        return 1.0 / (n * h * h)
    return 3.0 / (4.0 * n * h * h * h)


def nb_scores_batch(model, x):
    """Kernel naive Bayes scores of an NbClassifier, block by block over a
    (queries x class rows x d) tensor of differences in the bandwidth's
    units, summed over the class rows and then scaled."""
    x = nm.as_rows(x, model.class_samples[0].shape[1])
    h = model.bandwidth
    out = np.empty((x.shape[0], len(model.class_samples)))
    for j, samples in enumerate(model.class_samples):
        scale = _density_scale(model.kernel, h, len(samples))
        for rows in nm.row_blocks(x.shape[0], samples.nbytes):
            t = x[rows, None, :] - samples[None, :, :]
            dens = _kernel_values(model.kernel, h, t).sum(axis=1) * scale
            with np.errstate(divide="ignore"):
                logs = np.maximum(np.log(dens), LOG_DENSITY_FLOOR)
            out[rows, j] = logs.sum(axis=1) + model.log_priors[j]
    return out


def knn_distances(model, q):
    """Elementwise distances from the prepared query rows q (standardised or
    whitened as the model's training rows) to every training row, each
    pair's d terms added in ascending feature order."""
    diff = q[:, None, :] - model.x_train.T[None, :, :]
    terms = np.abs(diff) if model.metric is Metric.CITYBLOCK else diff * diff
    total = terms[..., 0].copy()
    for j in range(1, terms.shape[-1]):
        total += terms[..., j]
    return total if model.metric is Metric.CITYBLOCK else np.sqrt(total)


def knn_scores_batch(model, x):
    """Vote counts among each query's k nearest training rows, every
    distance tie to the lower training index."""
    dists = knn_distances(model, model._query_matrix(x))
    nearest = np.argsort(dists, axis=1, kind="stable")[:, :model.k]
    return np.array([np.bincount(model.y_train[row], minlength=model.n_classes)
                     for row in nearest], dtype=float).reshape(-1, model.n_classes)
