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
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import ClassifierModel, Dataset
from .errors import (
    BadConfig,
    DimensionMismatch,
    EmptyTrainingSet,
    NoValidSplit,
    NotAProbabilityVector,
    PureNode,
)

DEFAULT_MAX_SPLITS = 20
DEFAULT_BAG_SIZE = 30
_GAIN_SLACK = 1e-9          # float slack on the gain >= 0 growth assertion


class Impurity(str, enum.Enum):
    GINI = "gini"
    ENTROPY = "entropy"


class SplitCriterion(str, enum.Enum):
    GINI = "gini"
    ENTROPY = "entropy"
    TWOING = "twoing"


def impurity(measure: Impurity, p: np.ndarray) -> float:
    """Gini index 1 - sum p^2 or entropy -sum p log p of class proportions."""
    measure = Impurity(measure)
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise NotAProbabilityVector(
            "impurity needs nonnegative proportions summing to 1")
    if measure is Impurity.GINI:
        return float(1.0 - (p * p).sum())
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return float(-terms.sum())


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


def best_split(x: np.ndarray, y: np.ndarray, n_classes: int,
               criterion: SplitCriterion) -> tuple[SplitRule, float]:
    """Exhaustive scan of every (feature, midpoint) candidate.

    Returns the maximal-score rule; score ties go to the lower feature
    index, then the lower threshold. Raises PureNode for single-class input
    and NoValidSplit when no feature has two distinct values.
    """
    criterion = SplitCriterion(criterion)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    n = x.shape[0]
    if n < 2 or np.all(y == y[0]):
        raise PureNode("node already holds a single class")
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    parent_counts = onehot.sum(axis=0)
    if criterion is SplitCriterion.GINI:
        parent_score = _gini_from_counts(parent_counts[None, :], np.array([float(n)]))[0]
    elif criterion is SplitCriterion.ENTROPY:
        parent_score = _entropy_from_counts(parent_counts[None, :], np.array([float(n)]))[0]
    best: tuple[SplitRule, float] | None = None
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
        if best is None or scores[k] > best[1]:
            thr = 0.5 * (values[boundaries[k]] + values[boundaries[k] + 1])
            best = (SplitRule(feature=f, threshold=float(thr)), float(scores[k]))
    if best is None:
        raise NoValidSplit("every feature is constant on this node")
    return best


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
        q = np.atleast_2d(np.asarray(x, dtype=float))
        if q.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"rows have {q.shape[1]} features, tree expects {self.n_features}")
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

    def rule_table(self) -> list[dict]:
        """One row per node: id, condition or label, child ids."""
        rows = []
        for i, node in enumerate(self.nodes):
            if node.is_leaf:
                rows.append({"node": i, "kind": "leaf",
                             "label": self.class_names[node.label]})
            else:
                rows.append({"node": i, "kind": "split",
                             "condition": f"x[{node.feature}] < {node.threshold!r}",
                             "left": node.left, "right": node.right})
        return rows

    def format_rules(self) -> str:
        lines = []
        for row in self.rule_table():
            if row["kind"] == "leaf":
                lines.append(f"{row['node']:>4}  leaf  -> {row['label']}")
            else:
                lines.append(f"{row['node']:>4}  if {row['condition']}"
                             f" then {row['left']} else {row['right']}")
        return "\n".join(lines)

    def describe(self) -> dict:
        return {"family": self.family, "criterion": self.criterion.value,
                "max_splits": self.max_splits,
                "internal_nodes": self.internal_count()}


def _majority_label(y: np.ndarray, n_classes: int) -> int:
    return int(np.argmax(np.bincount(y, minlength=n_classes)))


def fit_tree(train: Dataset, criterion: SplitCriterion = SplitCriterion.GINI,
             max_splits: int = DEFAULT_MAX_SPLITS) -> DecisionTreeModel:
    """Greedy breadth-first growth under a budget of internal nodes."""
    if train.n == 0:
        raise EmptyTrainingSet("cannot fit on zero samples")
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
            try:
                rule, score = best_split(train.x[rows], y_node,
                                         train.n_classes, criterion)
            except (PureNode, NoValidSplit):
                rule = None
            if rule is not None:
                if criterion is not SplitCriterion.TWOING:
                    assert score >= -_GAIN_SLACK, (
                        f"negative purity gain {score} during growth")
                go_left = train.x[rows, rule.feature] < rule.threshold
                left_id, right_id = len(nodes), len(nodes) + 1
                nodes[node_id] = TreeNode(feature=rule.feature,
                                          threshold=rule.threshold,
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
        q = np.atleast_2d(np.asarray(x, dtype=float))
        return sum(tree.scores_batch(q) for tree in self.trees)

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
    if train.n == 0:
        raise EmptyTrainingSet("cannot fit on zero samples")
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
