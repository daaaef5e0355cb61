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

Every tree of a fit grows from one sorted array, as in CART's presort
(Breiman et al., 1984). A fit is a committee of draws of the training
rows: one draw of every row for `fit_tree`, one bootstrap draw per tree
for `fit_bagged`. Row f of the fit's (d x total draw size) order array
lists each draw sorted by x[:, f], draw after draw, as indices into the
training rows, so every tree reads the same x and y. A node is a column
range of that array, and a split partitions its range stably in place.
So each node's range lists its rows in the order a fresh sort of its rows
would give, up to the order among equal values, on which no split
decision depends: a split is chosen from the class counts at boundaries
between distinct values.

The trees grow together, in rounds. A round takes from the front of each
tree's breadth-first queue as many nodes as that tree has splits left,
scores all of them in one `best_split` call and partitions every node
that split in one pass. Each tree is thus node for node the tree that
growing one node at a time would give: the same breadth-first order,
budget and tie rules.

`best_split` scores in two stages. It first computes, for every boundary
of every feature of every node, a proxy from exact integer class counts
that in real arithmetic is an increasing function of the split score, in
O(columns) work per feature whatever the number of classes. It then
evaluates the float score, by the same expressions as a full scan, only
for candidates whose proxy lies within a margin of the best proxy of
their node. One margin serves every node of a screen run under every
criterion: it is at least twice a written bound on the float score's
rounding error plus twice a written bound on the proxy's, so every
candidate whose float score could be the largest survives the screen, and
the rule chosen among them (largest score, then lowest feature, then
lowest threshold) and its score are those of a full float scan.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset, check_training_set
from .errors import DimensionMismatch, NegativeGain, Setting, non_negative_integer, positive_integer

DEFAULT_MAX_SPLITS = 20
DEFAULT_BAG_SIZE = 30
_GAIN_SLACK = 1e-9          # float slack on the score >= 0 growth check
_U = np.finfo(float).eps / 2    # unit roundoff 2^-53
_LOG_ERROR = 8              # np.log's relative error in units of _U (4 ulps)
# added to a proxy: -inf where a feature's value does not change, else 0
_NO_BOUNDARY = np.array([-np.inf, 0.0])


class SplitCriterion(Setting):
    GINI = "gini"
    ENTROPY = "entropy"
    TWOING = "twoing"


def _gini_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    frac = counts / totals[:, None]
    return 1.0 - (frac * frac).sum(axis=1)


def _entropy_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    frac = counts / totals[:, None]
    terms = np.where(frac > 0.0, frac * np.log(np.where(frac > 0.0, frac, 1.0)), 0.0)
    return -terms.sum(axis=1)


def _ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """range(start[i], start[i] + size[i]) for every i, concatenated."""
    return (np.repeat(start - (np.cumsum(size) - size), size)
            + np.arange(size.sum()))


def _margin(columns: int, n_classes: int) -> float:
    """How far below the best proxy of its node a candidate may lie and
    still have the largest float score, for every node of a screen run of
    the given number of columns, whose nodes share one cumulative sum.

    Standard error analysis (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3-4) of the expressions in `_float_scores` bounds a
    float score's rounding error, less an error that all candidates of a
    node share (the parent term's), by (K + 9)u for Gini, (2K + 8)u for
    Twoing and ((K + 5 + L) log K + 1.02)u for Entropy, with u the unit
    roundoff and L u the relative error of np.log; E = (2K + 10 + L)
    (1 + log K)u covers all three. At a node of m rows a proxy is the
    score times s = m (Gini, Entropy) or m^2 (Twoing) plus a constant, and
    it is within A(m) of its real value: 3u m for Gini, 3u m^2 for Twoing
    and (4L + 9)u m^2 log m for Entropy (see the _*_proxy methods of
    `_Run`). So the node needs a margin of 2 s E + 2 A(m).

    The Entropy cumsum runs on from one node into the next. Each node's
    increments sum to 0 in real arithmetic, so a node starts from the
    rounding error of the nodes before it, P, which enters its proxies
    once and their roundings as u m P: its proxy error is within A(m) plus
    2P, and P, with the same factor on each earlier node, is within twice
    the sum of their A (for u times the rows summed below log 2). So an
    Entropy node needs 2 m E plus at most 8 times the sum of A over the
    run.

    A run of M columns holds nodes of m >= 2 rows, so s <= m^2 <= M^2 and
    sum m^2 <= M^2: under every criterion each node needs at most
    2 M^2 E + 8 (4L + 9)u M^2 log M, below the 2 M^2 (E + 5 (4L + 9)u
    log M) returned. A wider margin only sends more candidates to the
    float stage.
    """
    score = (2 * n_classes + 10 + _LOG_ERROR) * (1.0 + math.log(n_classes))
    proxy = 5 * (4 * _LOG_ERROR + 9) * math.log(columns)
    return 2.0 * columns * columns * (score + proxy) * _U


class _Run:
    """Consecutive nodes laid end to end along the columns of a screen
    block, from their (nodes x K) class counts, with what every block of
    their columns shares.

    A proxy takes labels, each row of which lists the nodes' labels, every
    node in one feature's order. The row's stable order by class (a radix
    sort) lists every class's rows node after node, and within a node in
    feature order. So the rank of the row at each place of it within its
    class and node, and its node's count N_k of that class, are the same
    for every row; the Gini and Entropy increments, which depend on those
    alone, are laid out in that order once per run and put back in feature
    order by each row's sort, and Twoing reads from the sort the column of
    every class's rows in turn. So every proxy takes O(columns) work per
    row, whatever K is.
    """

    def __init__(self, class_n: np.ndarray):
        self.class_n = class_n
        self.size = size = class_n.sum(axis=1)
        self.first = np.cumsum(size) - size
        self.last = self.first + size - 1
        self.node = np.repeat(np.arange(size.size), size)
        # the rows left (nL) and right (nR) of the boundary after each
        # column; a node's last column is no boundary, and its nR is set
        # to 1 so that the proxies stay finite there
        self.n_left = np.arange(1, size.sum() + 1) - self.first[self.node]
        self.n_right = size[self.node] - self.n_left
        self.n_right[self.last] = 1

    def proxy(self, criterion: SplitCriterion, labels: np.ndarray) -> np.ndarray:
        """The proxy at every column of every row of labels."""
        if criterion is SplitCriterion.GINI:
            return self._gini_proxy(labels)
        if criterion is SplitCriterion.ENTROPY:
            return self._entropy_proxy(labels)
        return self._twoing_proxy(labels)

    @cached_property
    def _by_class(self) -> tuple[np.ndarray, np.ndarray]:
        """The rank r within its class and node, and N_k, at each place of
        a row's order by class."""
        counts = self.class_n.T.ravel()     # (class, node) groups, class first
        rank = (np.arange(self.node.size)
                - np.repeat(np.cumsum(counts) - counts, counts))
        return rank, np.repeat(counts, counts)

    def _in_feature_order(self, labels: np.ndarray,
                          *steps: np.ndarray) -> list[np.ndarray]:
        """Each of steps, given in order by class, put in the feature order
        of every row of labels."""
        rows, width = labels.shape
        by_class = np.argsort(labels, axis=1, kind="stable")
        by_class += width * np.arange(rows)[:, None]
        places = by_class.ravel()
        out = []
        for step in steps:
            placed = np.empty(labels.shape, dtype=step.dtype)
            placed.ravel()[places] = np.tile(step, rows)
            out.append(placed)
        return out

    @cached_property
    def _gini_steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rank, count = self._by_class
        left_step = 2 * rank + 1
        squares = (self.class_n * self.class_n).sum(axis=1)
        return left_step, left_step - 2 * count, squares

    def _gini_proxy(self, labels: np.ndarray) -> np.ndarray:
        """P = sum_k cL_k^2 / nL + sum_k cR_k^2 / nR at every column; the
        Gini gain is G(parent) - 1 + P / m.

        A row of class k with rank r raises sum_k cL_k^2 by 2r + 1 as it
        moves left, and lowers sum_k cR_k^2 =
        sum N_k^2 - 2 sum_k N_k cL_k + sum_k cL_k^2 by 2N_k - 2r - 1. A
        whole node adds sum N_k^2 to the first sum and takes it from the
        second, so one cumulative sum per block row gives every node's
        sums once each node's first column takes back what the node
        before it added and starts the second sum at sum N_k^2. All of
        this is exact in int64 and in float64 for m < 9e7. P then takes
        two divisions and an addition, so it is within 3u m of the real
        P, as P <= m.
        """
        left_step, right_step, squares = self._gini_steps
        sq_left, sq_right = self._in_feature_order(labels, left_step,
                                                   right_step)
        sq_left[:, self.first[1:]] -= squares[:-1]
        sq_right[:, self.first] += squares
        np.cumsum(sq_left, axis=1, out=sq_left)
        np.cumsum(sq_right, axis=1, out=sq_right)
        proxy = sq_left / self.n_left
        proxy += sq_right / self.n_right
        return proxy

    @cached_property
    def _entropy_steps(self) -> tuple[np.ndarray, np.ndarray]:
        rank, count = self._by_class
        xlogx = np.arange(self.size.max() + 1.0)
        xlogx[1:] *= np.log(xlogx[1:])
        step = np.diff(xlogx)
        return (step[rank] - step[count - 1 - rank],
                xlogx[self.n_left] + xlogx[self.n_right])

    def _entropy_proxy(self, labels: np.ndarray) -> np.ndarray:
        """Q = sum_k cL_k log cL_k + sum_k cR_k log cR_k - sum_k N_k log N_k
        - nL log nL - nR log nR at every column; the entropy gain is
        H(parent) + (Q + sum N log N) / m, so within a node Q orders the
        candidates as the gain does.

        As a row of class k and rank r moves left, the left sum grows by
        s(r) = (r + 1) log(r + 1) - r log r and the right sum falls by
        s(N_k - 1 - r), so Q is one cumulative sum of s(r) - s(N_k - 1 - r)
        less the table terms of nL and nR. A whole node's increments sum
        to 0 in real arithmetic, so the sum runs on from one node into the
        next (`_margin` covers what it carries). With the table j log j
        within (L + 1)u of itself, each s is within (2L + 3)u (j + 1) log m,
        and the j + 1 of the two table entries a row looks up add up to
        N_k + 1, so the tables bring (2L + 3)u (m^2 + m) log m; the
        differences and the cumulative sum, whose partial sums lie in
        [-m log m, 0], bring u m (log m + 1) + u m^2 log m, and the two
        table terms with the last two roundings (L + 4)u m log m. Q is
        within (2L + 4)u m^2 log m + (3L + 10)u m log m, below
        (4L + 9)u m^2 log m for m >= 2.
        """
        step, table_terms = self._entropy_steps
        (proxy,) = self._in_feature_order(labels, step)
        np.cumsum(proxy, axis=1, out=proxy)
        proxy -= table_terms
        return proxy

    @cached_property
    def _twoing_steps(self) -> tuple[np.ndarray, np.ndarray,
                                     tuple[np.ndarray, np.ndarray]]:
        rank, count = self._by_class
        groups = self.class_n.T.ravel()
        node = np.repeat(np.arange(groups.size) % self.size.size, groups)
        # the first column at which the class, with r rows on the left, is
        # ahead of its share N_k nL / m: first + floor(m r / N_k)
        ahead = self.first[node] + self.size[node] * rank // count
        return ahead, np.flatnonzero(rank == 0), (count.astype(float),
                                                  rank.astype(float))

    def _twoing_proxy(self, labels: np.ndarray) -> np.ndarray:
        """R = D^2 / (nL nR) with D = sum_k |N_k nL - m cL_k| at every
        column; the Twoing score is R / m^2.

        With a_k = N_k nL - m cL_k, sum_k a_k = 0, so D = 2 sum_k
        max(a_k, 0) = 2 (nL A - m B), where A sums N_k and B sums cL_k
        over the classes with a_k > 0. Between a class's r-th and
        (r + 1)-th row of a node cL_k = r and a_k rises with nL, so the
        class is ahead on one interval: from the later of the r-th row's
        column and the column of nL = floor(m r / N_k) + 1 up to the
        column before the (r + 1)-th row. After its last row a_k <= 0. So
        each place of the row's order by class opens at most one interval
        and closes it at its own column, and A and B are the cumulative
        sums of N_k and r added where an interval opens and taken back
        where it closes; an empty interval opens at its closing column.
        Every sum is an integer at most m^2, so D is exact in float64 for
        m < 9e7, and R takes a square and a division of exact integers:
        it is within 3u m^2, as R <= m^2.
        """
        ahead, restart, per_place = self._twoing_steps
        closes = np.argsort(labels, axis=1, kind="stable")
        opens = np.empty_like(closes)
        opens[:, 1:] = closes[:, :-1]       # the class's previous row
        opens[:, restart] = 0
        np.maximum(opens, ahead, out=opens)
        np.minimum(opens, closes, out=opens)
        rows = labels.shape[1] * np.arange(labels.shape[0])[:, None]
        opens += rows
        closes += rows
        weights = np.empty(labels.shape)
        sums = []
        for step in per_place:
            weights[:] = step
            added = np.zeros(labels.shape)
            np.add.at(added.ravel(), opens.ravel(), weights.ravel())
            np.subtract.at(added.ravel(), closes.ravel(), weights.ravel())
            sums.append(np.cumsum(added, axis=1, out=added))
        spread, behind = sums
        spread *= self.n_left
        behind *= self.size[self.node]
        spread -= behind
        spread *= 2.0
        spread *= spread
        spread /= self.n_left * self.n_right
        return spread


def _groups(size: np.ndarray, column_bytes: int) -> list[tuple[int, int]]:
    """Runs [a, b) of consecutive nodes whose columns, at column_bytes
    each, fit in numerics.BLOCK_BYTES together; a larger node runs alone."""
    cap = nm.BLOCK_BYTES // column_bytes
    runs, a, held = [], 0, 0
    for i, m in enumerate(size.tolist()):
        if held and held + m > cap:
            runs.append((a, i))
            a, held = i, 0
        held += m
    runs.append((a, size.size))
    return runs


def _screen(criterion: SplitCriterion, xt: np.ndarray, labels_of: np.ndarray,
            class_n: np.ndarray, order: np.ndarray, cols: np.ndarray,
            size: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidates whose proxy is within the margin of their node's best.

    The nodes hold size[i] columns each, cols names them in order, class_n
    holds their class counts and xt is x transposed. Returns the kept
    candidates' nodes, features and boundary indices (b for the boundary
    after the b-th row of the feature's order), in (node, feature,
    boundary) order. The proxies are built for runs of whole nodes, a
    block of features at a time, so that one (features x columns) float64
    temporary of a block holds about numerics.BLOCK_BYTES; a block keeps
    the candidates within the run's margin of each node's best proxy so
    far.
    """
    d, n = xt.shape
    n_classes = class_n.shape[1]
    first = np.cumsum(size) - size
    best = np.full(size.size, -np.inf)
    margin = np.empty(size.size)
    found = []
    for a, b in _groups(size, 8 * d):
        run = _Run(class_n[a:b])
        run_cols = cols[first[a]:first[b - 1] + size[b - 1]]
        margin[a:b] = _margin(run_cols.size, n_classes)
        for feats in nm.row_blocks(d, 8 * run_cols.size):
            block = np.take(order[feats], run_cols, axis=1)
            values = xt.take(block
                             + n * np.arange(feats.start, feats.stop)[:, None])
            boundary = np.zeros(block.shape, dtype=bool)
            np.less(values[:, :-1], values[:, 1:], out=boundary[:, :-1])
            boundary[:, run.last] = False
            proxy = run.proxy(criterion, labels_of.take(block))
            proxy += _NO_BOUNDARY.take(boundary.view(np.uint8))
            top = np.maximum.reduceat(proxy, run.first, axis=1).max(axis=0)
            run_best = np.maximum(best[a:b], top, out=best[a:b])
            floor = np.where(run_best > -np.inf, run_best - margin[a:b], np.inf)
            feature, col = np.divmod(np.flatnonzero(proxy >= floor[run.node]),
                                     run_cols.size)
            at_node = run.node[col]
            found.append((at_node + a, feature + feats.start,
                          col - run.first[at_node], proxy[feature, col]))
    node, feature, at, kept = (np.concatenate(parts) for parts in zip(*found))
    close = kept >= best[node] - margin[node]
    node, feature, at = node[close], feature[close], at[close]
    ranked = np.lexsort((at, feature, node))
    return node[ranked], feature[ranked], at[ranked]


def _float_scores(criterion: SplitCriterion, left_counts: np.ndarray,
                  n_left: np.ndarray, parent_counts: np.ndarray,
                  n: np.ndarray) -> np.ndarray:
    """Split scores of the given candidates, by the float expressions that
    define them, from each candidate's parent class counts and size; every
    row's arithmetic is independent of the others'."""
    right_counts = parent_counts - left_counts
    n_right = n - n_left
    if criterion is SplitCriterion.TWOING:
        diff = np.abs(right_counts / n_right[:, None]
                      - left_counts / n_left[:, None]).sum(axis=1)
        return (n_left / n) * (n_right / n) * diff * diff
    child = (_gini_from_counts if criterion is SplitCriterion.GINI
             else _entropy_from_counts)
    return child(parent_counts, n) - ((n_left / n) * child(left_counts, n_left)
                                      + (n_right / n) * child(right_counts,
                                                              n_right))


def best_split(x: np.ndarray, y: np.ndarray, n_classes: int,
               criterion: SplitCriterion, order: np.ndarray,
               nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (feature, midpoint) rule of every node and its score.

    order is (d x N) and names rows of x and y. nodes is a (k x 2) array
    of [start, stop) column ranges of order, and order[f, start:stop]
    lists a node's rows sorted by x[:, f], equal values in any order.
    Returns the arrays feature, threshold and score, of length k: each
    node's maximal-score rule, score ties going to the lower feature index,
    then the lower threshold. A node of one class, or with no feature of
    two distinct values, gets feature -1 and a NaN threshold and score.

    The scan has two stages. First, every boundary of every feature gets a
    proxy from exact integer class counts, which in real arithmetic is an
    increasing function of the split score within its node: sum c^2 per
    side for Gini, sum c log c per side for Entropy, and D^2 / (nL nR)
    with D = sum_k |N_k nL - m cL_k| for Twoing (see the _*_proxy
    methods of `_Run`), each from the feature's order by class, so in
    O(rows) work per feature whatever the number of classes. Second, the
    float score is evaluated only for candidates whose proxy is within a
    margin of their node's best proxy, and the rule above picks among
    them. If every float score is within E of its real value (up to an
    error shared by the node) and every proxy within A of its real value,
    a candidate whose float score reaches that of the best proxy's
    candidate has a real score at most 2E below it, and so a proxy at most
    2E (in proxy units) + 2A below the best proxy. The margin of a screen
    run, `_margin`, is at least that sum at each of its nodes under every
    criterion, so the screen keeps every candidate a full float scan could
    pick, ties included.
    """
    criterion = SplitCriterion(criterion)
    x = np.asarray(x, dtype=float)
    d = order.shape[0]
    if d != x.shape[1]:
        raise DimensionMismatch(f"order has {d} features, rows have {x.shape[1]}")
    start, stop = np.asarray(nodes, dtype=np.intp).reshape(-1, 2).T
    size = stop - start
    k = start.size
    labels_of = np.asarray(y).astype(np.min_scalar_type(n_classes - 1))
    cols = _ranges(start, size)
    node_of = np.repeat(np.arange(k), size)
    class_n = np.bincount(node_of * n_classes + labels_of[order[0, cols]],
                          minlength=k * n_classes).reshape(k, n_classes)
    feature = np.full(k, -1)
    threshold = np.full(k, np.nan)
    score = np.full(k, np.nan)
    live = np.flatnonzero(class_n.max(axis=1) < size)
    if live.size == 0:
        return feature, threshold, score
    node, feat, at = _screen(criterion, np.ascontiguousarray(x.T), labels_of,
                             class_n[live], order,
                             _ranges(start[live], size[live]), size[live])
    node_start, node_n = start[live][node], class_n[live][node]
    # each candidate's left class counts: its node's first at + 1 rows in
    # the feature's order
    lefts = order.ravel()[_ranges(feat * order.shape[1] + node_start, at + 1)]
    slots = np.repeat(np.arange(node.size) * n_classes, at + 1) + labels_of[lefts]
    left_counts = np.bincount(slots, minlength=node.size * n_classes).reshape(
        node.size, n_classes).astype(float)
    scores = _float_scores(criterion, left_counts, at + 1.0,
                           node_n.astype(float), size[live][node].astype(float))
    # each node's first maximum: the lowest feature, then lowest threshold
    ranked = np.lexsort((-scores, node))
    pick = ranked[np.unique(node[ranked], return_index=True)[1]]
    f, b, s = feat[pick], at[pick], node_start[pick]
    found = live[node[pick]]
    feature[found] = f
    threshold[found] = 0.5 * (x[order[f, s + b], f] + x[order[f, s + b + 1], f])
    score[found] = scores[pick]
    return feature, threshold, score


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

    nodes: list
    criterion: SplitCriterion
    max_splits: int
    n_classes: int
    class_names: tuple[str, ...]
    n_features: int

    def leaf_labels(self, x: np.ndarray) -> np.ndarray:
        """The label of the leaf each row of x reaches."""
        q = nm.as_rows(x, self.n_features)
        # children are appended after their parent, so one pass in node
        # order moves every row from the root down to its leaf
        at = np.zeros(q.shape[0], dtype=int)
        for i, node in enumerate(self.nodes):
            if not node.is_leaf:
                here = at == i
                at[here] = np.where(q[here, node.feature] < node.threshold,
                                    node.left, node.right)
        return np.array([node.label for node in self.nodes])[at]

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        labels = self.leaf_labels(x)
        out = np.zeros((labels.size, self.n_classes))
        out[np.arange(labels.size), labels] = 1.0
        return out

    def internal_count(self) -> int:
        return sum(1 for node in self.nodes if not node.is_leaf)

    def describe(self) -> dict:
        return {"criterion": self.criterion.value, "max_splits": self.max_splits,
                "internal_nodes": self.internal_count()}


def _partition(xt: np.ndarray, order: np.ndarray, start: np.ndarray,
               size: np.ndarray, feature: np.ndarray, threshold: np.ndarray,
               owner: np.ndarray) -> np.ndarray:
    """Reorder the columns [start, start + size) of every row of order in
    place so that the node's rows with x[:, feature] < threshold come
    first, each side keeping its order; return how many go left per node.
    xt is x transposed, and owner names each node's tree, in whose sample
    no row is in two nodes.

    Each side is then its child's range: a stable partition of a sorted
    order is the sorted order of the subset.
    """
    d, n = xt.shape
    cols = _ranges(start, size)
    node = np.repeat(np.arange(start.size), size)
    rows = order[0].take(cols)
    goes = xt.take(n * feature[node] + rows) < threshold[node]
    n_left = np.bincount(node[goes], minlength=start.size)
    # the side of every (tree, row) that a node holds
    slot = n * owner[node]
    left_of = np.zeros(n * (owner.max(initial=0) + 1), dtype=bool)
    left_of[slot + rows] = goes
    first = np.cumsum(size) - size
    to_left = cols[_ranges(first, n_left)]
    to_right = cols[_ranges(first + n_left, size - n_left)]
    for f in range(d):
        rows = order[f].take(cols)
        goes = left_of.take(rows + slot)
        order[f][to_left] = rows.compress(goes)
        order[f][to_right] = rows.compress(~goes)
    return n_left


def _grow(train: Dataset, criterion: SplitCriterion, max_splits: int,
          draws: np.ndarray) -> list[list[TreeNode]]:
    """Grow one tree per row of draws, the (trees x n) counts of each
    training row in the tree's sample, under a budget of max_splits
    internal nodes each, in lockstep rounds."""
    n_trees = draws.shape[0]
    # stored a column at a time, so that best_split's x.T is no copy
    x = np.asfortranarray(train.x, dtype=float)
    # every tree's sample, sorted by each feature: the training rows in
    # stable argsort order, each repeated as often as the tree drew it,
    # in the smallest integer type that indexes them, a column at a time
    order = np.empty((train.d, int(draws.sum())),
                     dtype=np.min_scalar_type(train.n - 1))
    for f in range(train.d):
        by_value = np.argsort(x[:, f], kind="stable")
        order[f] = np.repeat(np.tile(by_value, n_trees),
                             draws[:, by_value].ravel())
    sizes = draws.sum(axis=1)
    nodes = [[None] for _ in range(n_trees)]    # each tree's root, to come
    # (node id, start, stop) of each tree's nodes still to be decided
    queues = [deque([(0, end - size, end)]) for size, end
              in zip(sizes.tolist(), np.cumsum(sizes).tolist())]
    splits_left = [max_splits] * n_trees
    leaves = []
    while True:
        taken = [(t, *queue.popleft()) for t, queue in enumerate(queues)
                 for _ in range(min(len(queue), splits_left[t]))]
        if not taken:
            break
        ranges = np.array([(start, stop) for _, _, start, stop in taken])
        feature, threshold, score = best_split(x, train.y,
                                               train.n_classes, criterion,
                                               order, ranges)
        split = np.flatnonzero(feature >= 0)
        low = score[split] < -_GAIN_SLACK
        if low.any():
            raise NegativeGain(
                f"negative split score {score[split][low][0]} during growth")
        start, stop = ranges[split].T
        owner = np.array([t for t, _, _, _ in taken])[split]
        n_left = _partition(x.T, order, start, stop - start,
                            feature[split], threshold[split], owner)
        cuts = dict(zip(split.tolist(), (start + n_left).tolist()))
        for i, (t, node_id, start, stop) in enumerate(taken):
            if i not in cuts:
                leaves.append((t, node_id, start, stop))
                continue
            tree = nodes[t]
            left_id = len(tree)
            tree[node_id] = TreeNode(feature=int(feature[i]),
                                     threshold=float(threshold[i]),
                                     left=left_id, right=left_id + 1)
            tree += [None, None]
            queues[t] += [(left_id, start, cuts[i]),
                          (left_id + 1, cuts[i], stop)]
            splits_left[t] -= 1
    leaves += [(t, *entry) for t, queue in enumerate(queues) for entry in queue]
    # each leaf's majority class, the smallest index on ties
    _, _, start, stop = (np.array(part) for part in zip(*leaves))
    slots = (np.repeat(np.arange(len(leaves)) * train.n_classes, stop - start)
             + train.y[order[0, _ranges(start, stop - start)]])
    labels = np.bincount(slots, minlength=len(leaves) * train.n_classes
                         ).reshape(len(leaves), train.n_classes).argmax(axis=1)
    for (t, node_id, _, _), label in zip(leaves, labels.tolist()):
        nodes[t][node_id] = TreeNode(label=label)
    return nodes


def fit_tree(train: Dataset, criterion: SplitCriterion = SplitCriterion.GINI,
             max_splits: int = DEFAULT_MAX_SPLITS) -> DecisionTreeModel:
    """Greedy breadth-first growth under a budget of internal nodes: a
    committee of one tree, drawn from every training row once."""
    check_training_set(train, two_classes=False)
    criterion = SplitCriterion(criterion)
    max_splits = positive_integer("max_splits", max_splits)
    (nodes,) = _grow(train, criterion, max_splits,
                     np.ones((1, train.n), dtype=np.intp))
    return DecisionTreeModel(nodes=nodes, criterion=criterion,
                             max_splits=max_splits, n_classes=train.n_classes,
                             class_names=train.class_names,
                             n_features=train.d)


@dataclass
class BaggedTreeClassifier(ClassifierModel):
    """Committee of trees fit on bootstrap draws; scores are vote counts."""

    trees: list
    max_splits: int
    n_classes: int
    class_names: tuple[str, ...]
    seed: int = 0

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        labels = np.array([tree.leaf_labels(x) for tree in self.trees])
        q = labels.shape[1]
        slots = labels + self.n_classes * np.arange(q)
        return np.bincount(slots.ravel(), minlength=q * self.n_classes
                           ).reshape(q, self.n_classes).astype(float)

    def describe(self) -> dict:
        return {"criterion": SplitCriterion.GINI.value,
                "trees": len(self.trees), "max_splits": self.max_splits}


def bootstrap_rows(n: int, seed: int, tree_index: int) -> np.ndarray:
    """Size-n with-replacement draw from the per-tree seeded stream."""
    rng = np.random.default_rng((seed, tree_index))
    return rng.integers(0, n, size=n)


def fit_bagged(train: Dataset, n_trees: int = DEFAULT_BAG_SIZE,
               max_splits: int = DEFAULT_MAX_SPLITS,
               seed: int = 0) -> BaggedTreeClassifier:
    """Fit n_trees Gini trees on independent seeded bootstrap draws, grown
    together from one sorted array of all the draws."""
    check_training_set(train, two_classes=False)
    n_trees = positive_integer("n_trees", n_trees)
    max_splits = positive_integer("max_splits", max_splits)
    seed = non_negative_integer("seed", seed)
    draws = np.array([np.bincount(bootstrap_rows(train.n, seed, t),
                                  minlength=train.n) for t in range(n_trees)])
    gini = SplitCriterion.GINI
    trees = [DecisionTreeModel(nodes=nodes, criterion=gini,
                               max_splits=max_splits,
                               n_classes=train.n_classes,
                               class_names=train.class_names,
                               n_features=train.d)
             for nodes in _grow(train, gini, max_splits, draws)]
    return BaggedTreeClassifier(trees=trees, max_splits=max_splits,
                                n_classes=train.n_classes,
                                class_names=train.class_names, seed=seed)
