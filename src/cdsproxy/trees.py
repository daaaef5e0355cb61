"""Binary CART-style decision trees and bootstrap-aggregated committees.

Splits are axis-aligned: left = {x_f < r}, right = {x_f >= r}, with
candidate thresholds half-way between consecutive distinct sorted values.
Gini and Entropy splits maximise the purity gain

    gain(s) = G(parent) - p_L G(left) - p_R G(right)

while Twoing maximises its own split score p_L p_R (sum_j |pi_jR - pi_jL|)^2.
Growth is greedy and breadth-first under a budget of internal nodes; leaves
take the majority class with the smallest-index tie rule. Bagging draws B
bootstrap samples of size n from per-tree seeded streams and predicts by
majority vote over the committee.

Each fit sorts its columns once, as in CART (Breiman et al., 1984):
`fit_tree` takes a stable argsort of every column at the root, and a
child's per-feature order is its parent's with the other child's rows
taken out, by a stable partition in place, so that every node's order is
a view into the fit's one sorted array. A stable partition of a stable
order is the stable order of the subset, so every node sees the orders a
fresh stable sort of its rows would give, ties included.

`best_split` scores in two stages. It first computes, for every boundary
of every feature at once, a proxy from exact integer class counts that in
real arithmetic is an increasing function of the split score. It then
evaluates the float score, by the same expressions as a full scan, only
for candidates whose proxy lies within a margin of the best proxy. The
margin is twice a written bound on the float score's rounding error plus
twice a written bound on the proxy's, so every candidate whose float
score could be the largest survives the screen, and the rule chosen among
them (largest score, then lowest feature, then lowest threshold) and its
score are those of a full float scan.
"""
from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset, check_training_set
from .errors import (
    BadConfig,
    DimensionMismatch,
    NoValidSplit,
    PureNode,
)

DEFAULT_MAX_SPLITS = 20
DEFAULT_BAG_SIZE = 30
_GAIN_SLACK = 1e-9          # float slack on the gain >= 0 growth assertion
_U = np.finfo(float).eps / 2    # unit roundoff 2^-53
_LOG_ERROR = 8              # np.log's relative error in units of _U (4 ulps)


class SplitCriterion(str, enum.Enum):
    GINI = "gini"
    ENTROPY = "entropy"
    TWOING = "twoing"


@dataclass(frozen=True)
class SplitRule:
    """Route rows with x[feature] < threshold left, the rest right."""

    feature: int
    threshold: float


def _gini_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    frac = counts / totals[:, None]
    return 1.0 - (frac * frac).sum(axis=1)


def _entropy_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    frac = counts / totals[:, None]
    terms = np.where(frac > 0.0, frac * np.log(np.where(frac > 0.0, frac, 1.0)), 0.0)
    return -terms.sum(axis=1)


def _score_error(n_classes: int) -> float:
    """Bound on a float split score's rounding error, less an error that
    all candidates of a node share (the parent term's).

    Standard error analysis (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3-4) of the expressions in `_float_scores` gives
    (K + 9)u for Gini, (2K + 8)u for Twoing and ((K + 5 + L) log K + 1.02)u
    for Entropy, with u the unit roundoff and L u the relative error of
    np.log; this one formula covers all three.
    """
    return (2 * n_classes + 10 + _LOG_ERROR) * (1.0 + math.log(n_classes)) * _U


def _proxy_error(criterion: SplitCriterion, m: int) -> float:
    """Bound on a proxy's rounding error at a node of m rows; see the
    _*_proxy functions for each derivation."""
    if criterion is SplitCriterion.GINI:
        return 3 * _U * m
    if criterion is SplitCriterion.TWOING:
        return 3 * _U * m * m
    return (3 * _LOG_ERROR + 9) * _U * m * m * math.log(m)


def _margin(criterion: SplitCriterion, m: int, n_classes: int) -> float:
    """How far below the best proxy a candidate may lie and still have the
    largest float score: two score errors and two proxy errors."""
    # proxy units per unit of score: m for Gini and Entropy, m^2 for Twoing
    scale = m * m if criterion is SplitCriterion.TWOING else m
    return scale * 2 * _score_error(n_classes) + 2 * _proxy_error(criterion, m)


def _gini_proxy(rank: np.ndarray, labels: np.ndarray,
                class_n: np.ndarray) -> np.ndarray:
    """P = sum_k cL_k^2 / nL + sum_k cR_k^2 / nR at every boundary; the
    Gini gain is G(parent) - 1 + P / m.

    A row of class k with rank r (earlier rows of class k) raises
    sum_k cL_k^2 by 2r + 1 as it moves left, and sum_k cR_k^2 =
    sum N_k^2 - 2 sum_k N_k cL_k + sum_k cL_k^2, all exact in int64 and in
    float64 for m < 9e7. P then takes two divisions and an addition, so it
    is within 3u m of the real P, as P <= m.
    """
    m = rank.shape[1]
    n_left = np.arange(1, m)
    sq_left = 2 * rank
    sq_left += 1
    np.cumsum(sq_left, axis=1, out=sq_left)
    sq_right = class_n[labels]
    np.cumsum(sq_right, axis=1, out=sq_right)
    sq_right *= -2
    sq_right += int(class_n @ class_n)
    sq_right += sq_left
    proxy = sq_left[:, :-1] / n_left
    proxy += sq_right[:, :-1] / (m - n_left)
    return proxy


def _entropy_proxy(rank: np.ndarray, labels: np.ndarray,
                   class_n: np.ndarray) -> np.ndarray:
    """Q = sum_k cL_k log cL_k + sum_k cR_k log cR_k - nL log nL - nR log nR
    at every boundary; the entropy gain is H(parent) + Q / m.

    Each side's sum is a cumulative sum of the increments
    (c + 1) log(c + 1) - c log c over its rows, indexed by the row's rank
    within its class counted from that side. With the table j log j
    within (L + 1)u of itself, an increment is within (2L + 3)u (c + 1) log m,
    and the ranks of one side add up to at most m^2 / 2, so the table
    brings (L + 1.5)u m^2 log m per side and the cumulative sum
    u m^2 log m; the subtracted table terms and three roundings stay
    below u m^2 log m for m >= 2. Q is within (3L + 9)u m^2 log m.
    """
    m = rank.shape[1]
    n_left = np.arange(1, m)
    xlogx = np.arange(m + 1.0)
    xlogx[1:] *= np.log(xlogx[1:])
    step = np.diff(xlogx)
    from_left = step[rank]
    np.cumsum(from_left, axis=1, out=from_left)
    later = class_n[labels]
    later -= 1
    later -= rank
    from_right = step[later[:, ::-1]]
    np.cumsum(from_right, axis=1, out=from_right)
    proxy = from_left[:, :-1]
    proxy += from_right[:, -2::-1]
    proxy -= xlogx[n_left]
    proxy -= xlogx[m - n_left]
    return proxy


def _twoing_proxy(labels: np.ndarray, class_n: np.ndarray) -> np.ndarray:
    """R = D^2 / (nL nR) with D = sum_k |N_k nL - m cL_k| at every
    boundary; the Twoing score is R / m^2.

    D = nL nR sum_k |pi_kR - pi_kL| is exact in int64 and in float64 for
    m < 6e7, and R takes a square and a division of exact integers, so it
    is within 3u m^2, as R <= m^2.
    """
    d, m = labels.shape
    dtype = np.min_scalar_type(-m * m)        # holds every N_k nL - m cL_k
    # N_k nL - m cL_k is the sum over the left rows of N_k, less m for
    # each row of class k
    steps = class_n.astype(dtype)[:, None]
    classes = np.arange(class_n.size)[:, None]
    spread = np.empty((d, m - 1))
    for f in range(d):
        dev = np.where(labels[f, :-1] == classes, steps - m, steps)
        np.cumsum(dev, axis=1, out=dev)
        spread[f] = np.abs(dev, out=dev).sum(axis=0, dtype=np.int64)
    n_left = np.arange(1, m)
    spread *= spread
    spread /= n_left * (m - n_left)
    return spread


def _screen(criterion: SplitCriterion, x: np.ndarray, y: np.ndarray,
            class_n: np.ndarray,
            order: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidates whose proxy is within the margin of the best proxy.

    Returns the kept candidates' features, boundary indices (b for the
    boundary after row b of the feature's order) and left class counts
    (as floats), in (feature, boundary) order; raises NoValidSplit if no
    feature has two distinct values. The proxies are built a block of
    features at a time, so that a block's temporaries together hold about
    numerics.BLOCK_BYTES (Twoing adds a K x m count matrix), and a block
    keeps only the candidates within the margin of the best proxy so far.
    """
    d, m = order.shape
    n_classes = class_n.size
    labels_of = y.astype(np.min_scalar_type(n_classes - 1))
    # the rank within its class of each position of the rows sorted by class
    within = np.arange(m) - np.repeat(np.cumsum(class_n) - class_n, class_n)
    margin = _margin(criterion, m, n_classes)
    best = -np.inf
    found = []
    # up to eight (features x m) float64 or intp temporaries are alive at
    # once, 8 m bytes per feature each
    for feats in nm.row_blocks(d, 64 * m):
        block_order = order[feats]
        in_block = np.arange(block_order.shape[0])[:, None]
        values = x[block_order, feats.start + in_block]
        boundary = values[:, :-1] < values[:, 1:]
        if not boundary.any():
            continue
        labels = labels_of[block_order]
        if criterion is SplitCriterion.TWOING:
            proxy = _twoing_proxy(labels, class_n)
        else:
            # rows grouped by class, in feature order within each class (a
            # radix sort), give each row's rank within its class
            rank = np.empty(labels.shape, dtype=np.intp)
            rank[in_block, np.argsort(labels, axis=1, kind="stable")] = within
            proxy_of = (_gini_proxy if criterion is SplitCriterion.GINI
                        else _entropy_proxy)
            proxy = proxy_of(rank, labels, class_n)
        proxy[~boundary] = -np.inf
        best = max(best, proxy.max())
        feature, at = np.nonzero(proxy >= best - margin)
        found.append((feature + feats.start, at, proxy[feature, at]))
    if not found:
        raise NoValidSplit("every feature is constant on this node")
    if len(found) == 1:
        feature, at, _ = found[0]
    else:
        feature, at, kept = (np.concatenate(parts) for parts in zip(*found))
        close = kept >= best - margin
        feature, at = feature[close], at[close]
    left_counts = np.array([np.bincount(labels_of[order[f, :b + 1]],
                                        minlength=n_classes)
                            for f, b in zip(feature.tolist(), at.tolist())],
                           dtype=float)
    return feature, at, left_counts


def _float_scores(criterion: SplitCriterion, left_counts: np.ndarray,
                  n_left: np.ndarray, parent_counts: np.ndarray,
                  n: int) -> np.ndarray:
    """Split scores of the given candidates, by the float expressions that
    define them; every row's arithmetic is independent of the others'."""
    right_counts = parent_counts[None, :] - left_counts
    n_right = n - n_left
    if criterion is SplitCriterion.TWOING:
        diff = np.abs(right_counts / n_right[:, None]
                      - left_counts / n_left[:, None]).sum(axis=1)
        return (n_left / n) * (n_right / n) * diff * diff
    child = (_gini_from_counts if criterion is SplitCriterion.GINI
             else _entropy_from_counts)
    parent_score = child(parent_counts[None, :], np.array([float(n)]))[0]
    return parent_score - ((n_left / n) * child(left_counts, n_left)
                           + (n_right / n) * child(right_counts, n_right))


def best_split(x: np.ndarray, y: np.ndarray, n_classes: int,
               criterion: SplitCriterion,
               order: np.ndarray) -> tuple[SplitRule, float]:
    """Best (feature, midpoint) rule of a node and its score.

    order is (d x m) and names the node's m rows of x and y: order[f]
    lists them sorted stably by x[:, f], ties in increasing row order
    (the stable argsort of x[:, f] when the node holds every row). Returns
    the maximal-score rule; score ties go to the lower feature index, then
    the lower threshold. Raises PureNode for single-class input and
    NoValidSplit when no feature has two distinct values.

    The scan has two stages. First, every boundary of every feature gets a
    proxy from exact integer class counts, which in real arithmetic is an
    increasing function of the split score: sum c^2 per side for Gini,
    sum c log c per side for Entropy, and D^2 / (nL nR) with
    D = sum_k |N_k nL - m cL_k| for Twoing (see the _*_proxy functions).
    Second, the float score is evaluated only for candidates whose proxy
    is within a margin of the best proxy, and the rule above picks among
    them. If every float score is within E of its real value (up to an
    error shared by the node, `_score_error`) and every proxy within A of
    its real value (`_proxy_error`), a candidate whose float score reaches
    that of the best proxy's candidate has a real score at most 2E below
    it, and so a proxy at most 2E (in proxy units) + 2A below the best
    proxy. The margin is that sum, so the screen keeps every candidate a
    full float scan could pick, ties included. In proxy units A grows with
    m: as m u for Gini, m^2 log m u for Entropy and m^2 u for Twoing,
    whose proxies are the score times m, m and m^2 plus a constant.
    """
    criterion = SplitCriterion(criterion)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    d, m = order.shape
    if d != x.shape[1]:
        raise DimensionMismatch(f"order has {d} features, rows have {x.shape[1]}")
    class_n = np.bincount(y[order[0]], minlength=n_classes)
    if m < 2 or class_n.max() == m:
        raise PureNode("node already holds a single class")
    feature, at, left_counts = _screen(criterion, x, y, class_n, order)
    scores = _float_scores(criterion, left_counts, at + 1.0,
                           class_n.astype(float), m)
    k = int(np.argmax(scores))        # lowest feature, then lowest threshold
    f, b = int(feature[k]), int(at[k])
    thr = 0.5 * (x[order[f, b], f] + x[order[f, b + 1], f])
    return SplitRule(feature=f, threshold=float(thr)), float(scores[k])


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature/threshold/children set) or leaf (label set)."""

    feature: int = -1
    threshold: float = float("nan")
    left: int = -1
    right: int = -1
    label: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.label >= 0


@dataclass
class DecisionTreeModel(ClassifierModel):
    """Fitted tree; scores are the one-hot vector of the leaf label."""

    family = "DT"
    nodes: list
    criterion: SplitCriterion
    max_splits: int
    n_classes: int
    class_names: tuple[str, ...]
    n_features: int

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        q = nm.as_rows(x, self.n_features)
        # children are appended after their parent, so one pass in node
        # order moves every row from the root down to its leaf
        at = np.zeros(q.shape[0], dtype=int)
        for i, node in enumerate(self.nodes):
            if not node.is_leaf:
                here = at == i
                at[here] = np.where(q[here, node.feature] < node.threshold,
                                    node.left, node.right)
        labels = np.array([node.label for node in self.nodes])[at]
        out = np.zeros((q.shape[0], self.n_classes))
        out[np.arange(q.shape[0]), labels] = 1.0
        return out

    def internal_count(self) -> int:
        return sum(1 for node in self.nodes if not node.is_leaf)

    def describe(self) -> dict:
        return {"family": self.family, "criterion": self.criterion.value,
                "max_splits": self.max_splits,
                "internal_nodes": self.internal_count()}


def _majority_label(y: np.ndarray, n_classes: int) -> int:
    return int(np.argmax(np.bincount(y, minlength=n_classes)))


def _partition(order: np.ndarray, go_left: np.ndarray) -> int:
    """Reorder every row of order in place so that its rows with go_left
    come first, each side keeping its order; return how many go left.

    Each side is then its child's order: a stable partition of a stable
    order is the stable order of the subset, so the children's orders are
    views into the fit's one sorted array, as in CART's presort.
    """
    d, m = order.shape
    n_left = int(np.count_nonzero(go_left[order[0]]))
    # a feature's row of the masks, the rows and the two sides takes about
    # 16 m bytes
    for feats in nm.row_blocks(d, 16 * m):
        block = order[feats]
        goes = go_left[block].ravel()
        rows = block.ravel()
        left, right = rows.compress(goes), rows.compress(~goes)
        block[:, :n_left] = left.reshape(-1, n_left)
        block[:, n_left:] = right.reshape(-1, m - n_left)
    return n_left


def fit_tree(train: Dataset, criterion: SplitCriterion = SplitCriterion.GINI,
             max_splits: int = DEFAULT_MAX_SPLITS) -> DecisionTreeModel:
    """Greedy breadth-first growth under a budget of internal nodes."""
    check_training_set(train, two_classes=False)
    if max_splits < 1:
        raise BadConfig(f"max_splits must be >= 1, got {max_splits}")
    criterion = SplitCriterion(criterion)
    nodes: list[TreeNode] = [TreeNode()]      # placeholder for the root
    # (node id, the node's training rows in each feature's stable order);
    # every node's order is a view into this one array, held in the
    # smallest integer type that indexes the rows and sorted a column at
    # a time, so that no copy of train.x is made
    root_order = np.empty((train.d, train.n),
                          dtype=np.min_scalar_type(train.n - 1))
    for f in range(train.d):
        root_order[f] = np.argsort(train.x[:, f], kind="stable")
    queue = deque([(0, root_order)])
    splits_used = 0
    while queue:
        node_id, order = queue.popleft()
        if splits_used < max_splits:
            try:
                rule, score = best_split(train.x, train.y, train.n_classes,
                                         criterion, order)
            except (PureNode, NoValidSplit):
                rule = None
            if rule is not None:
                if criterion is not SplitCriterion.TWOING:
                    assert score >= -_GAIN_SLACK, (
                        f"negative purity gain {score} during growth")
                left_id, right_id = len(nodes), len(nodes) + 1
                nodes[node_id] = TreeNode(feature=rule.feature,
                                          threshold=rule.threshold,
                                          left=left_id, right=right_id)
                nodes.append(TreeNode())
                nodes.append(TreeNode())
                n_left = _partition(order,
                                    train.x[:, rule.feature] < rule.threshold)
                queue.append((left_id, order[:, :n_left]))
                queue.append((right_id, order[:, n_left:]))
                splits_used += 1
                continue
        nodes[node_id] = TreeNode(
            label=_majority_label(train.y[order[0]], train.n_classes))
    return DecisionTreeModel(nodes=nodes, criterion=criterion,
                             max_splits=max_splits, n_classes=train.n_classes,
                             class_names=train.class_names,
                             n_features=train.d)


@dataclass
class BaggedTreeClassifier(ClassifierModel):
    """Committee of trees fit on bootstrap draws; scores are vote counts."""

    family = "BaggedTree"
    trees: list
    criterion: SplitCriterion
    max_splits: int
    n_classes: int
    class_names: tuple[str, ...]
    seed: int = 0

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        return sum(tree.scores_batch(x) for tree in self.trees)

    def describe(self) -> dict:
        return {"family": self.family, "criterion": self.criterion.value,
                "trees": len(self.trees), "max_splits": self.max_splits}


def bootstrap_rows(n: int, seed: int, tree_index: int) -> np.ndarray:
    """Size-n with-replacement draw from the per-tree seeded stream."""
    rng = np.random.default_rng((seed, tree_index))
    return rng.integers(0, n, size=n)


def fit_bagged(train: Dataset, n_trees: int = DEFAULT_BAG_SIZE,
               criterion: SplitCriterion = SplitCriterion.GINI,
               max_splits: int = DEFAULT_MAX_SPLITS,
               seed: int = 0) -> BaggedTreeClassifier:
    """Fit n_trees trees on independent seeded bootstrap draws."""
    check_training_set(train, two_classes=False)
    if n_trees < 1:
        raise BadConfig(f"n_trees must be >= 1, got {n_trees}")
    trees = []
    for t in range(n_trees):
        rows = bootstrap_rows(train.n, seed, t)
        trees.append(fit_tree(train.subset(rows), criterion=criterion,
                              max_splits=max_splits))
    return BaggedTreeClassifier(trees=trees, criterion=SplitCriterion(criterion),
                                max_splits=max_splits, n_classes=train.n_classes,
                                class_names=train.class_names, seed=seed)
