import tracemalloc

import numpy as np
import pytest

import loop_reference as ref
from conftest import make_blobs
from cdsproxy import core, datagen, evaluation, trees
from cdsproxy.core import Dataset
from cdsproxy.errors import (
    BadConfig,
    DimensionMismatch,
    NegativeGain,
    TooFewSamples,
)
from cdsproxy.trees import (
    DEFAULT_BAG_SIZE,
    DEFAULT_MAX_SPLITS,
    SplitCriterion,
    best_split,
    bootstrap_rows,
    fit_bagged,
    fit_tree,
)


def column_orders(x):
    """(d x n) stable argsort of every column, as best_split takes it."""
    return np.argsort(x, axis=0, kind="stable").T


def split_of(x, y, n_classes, criterion, order=None):
    """best_split of one node that holds every column of order (by default
    every row of x): ((feature, threshold), score)."""
    order = column_orders(x) if order is None else order
    feature, threshold, score = best_split(x, y, n_classes, criterion, order,
                                           [(0, order.shape[1])])
    return (int(feature[0]), float(threshold[0])), float(score[0])


def split_oracle(x, y, n_classes, criterion):
    """Brute-force enumeration of every (feature, midpoint) candidate."""
    n = x.shape[0]
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    parent_counts = onehot.sum(axis=0)

    def gini(counts, total):
        frac = counts / total
        return 1.0 - (frac * frac).sum()

    def entropy(counts, total):
        frac = counts / total
        terms = np.where(frac > 0.0, frac * np.log(np.where(frac > 0.0, frac, 1.0)), 0.0)
        return -terms.sum()

    child = gini if criterion is SplitCriterion.GINI else entropy
    if criterion is not SplitCriterion.TWOING:
        parent_score = child(parent_counts, float(n))
    best = None
    for f in range(x.shape[1]):
        values = np.sort(x[:, f])
        for a, b in zip(values[:-1], values[1:]):
            if not a < b:
                continue
            thr = 0.5 * (a + b)
            left = x[:, f] < thr
            n_left = float(left.sum())
            n_right = n - n_left
            lc = onehot[left].sum(axis=0)
            rc = parent_counts - lc
            if criterion is SplitCriterion.TWOING:
                diff = np.abs(rc / n_right - lc / n_left).sum()
                score = (n_left / n) * (n_right / n) * diff * diff
            else:
                score = parent_score - ((n_left / n) * child(lc, n_left)
                                        + (n_right / n) * child(rc, n_right))
            if best is None or score > best[2]:
                best = (f, thr, score)
    return best


class TestBestSplit:
    def test_perfect_split_gini_gain(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        rule, score = split_of(x, y, 2, SplitCriterion.GINI)
        assert rule == (0, 1.5)
        assert score == pytest.approx(0.5, abs=1e-15)

    def test_perfect_split_twoing_score(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        rule, score = split_of(x, y, 2, SplitCriterion.TWOING)
        assert rule == (0, 1.5)
        assert score == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    def test_matches_exhaustive_oracle(self, criterion):
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = int(rng.integers(4, 14))
            x = np.round(rng.normal(size=(n, 2)), 1)  # rounded to force ties
            y = rng.integers(0, 3, size=n)
            if np.unique(y).size < 2:
                continue
            rule, score = split_of(x, y, 3, criterion)
            f, thr, want = split_oracle(x, y, 3, criterion)
            assert rule == (f, thr), f"trial {trial}"
            assert score == pytest.approx(want, rel=1e-12)

    def test_threshold_between_distinct_values(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(12, 3))
        y = rng.integers(0, 2, size=12)
        (feature, threshold), _ = split_of(x, y, 2, SplitCriterion.GINI)
        col = np.sort(x[:, feature])
        below = col[col < threshold]
        above = col[col >= threshold]
        assert below.size > 0 and above.size > 0
        assert threshold == 0.5 * (below.max() + above.min())

    def test_pure_node_rejected(self):
        x = np.arange(4.0)[:, None]
        (feature, threshold), score = split_of(x, np.zeros(4, dtype=int), 2,
                                               SplitCriterion.GINI)
        assert feature == -1 and np.isnan(threshold) and np.isnan(score)

    def test_identical_rows_rejected(self):
        x = np.ones((5, 2))
        y = np.array([0, 1, 0, 1, 0])
        (feature, threshold), score = split_of(x, y, 2, SplitCriterion.GINI)
        assert feature == -1 and np.isnan(threshold) and np.isnan(score)

    def test_order_of_another_width_rejected(self):
        x = np.arange(8.0).reshape(4, 2)
        y = np.array([0, 1, 0, 1])
        with pytest.raises(DimensionMismatch):
            best_split(x, y, 2, SplitCriterion.GINI, column_orders(x)[:1],
                       [(0, 4)])

    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    def test_nodes_of_one_call_match_the_nodes_alone(self, criterion):
        # nodes of every size, pure and constant ones among them, laid
        # side by side in one order array as a fit's rounds lay them
        rng = np.random.default_rng(9)
        sizes = [1, 2, 40, 7, 300, 5, 60, 3, 120, 2]
        blocks, nodes, start = [], [], 0
        x = np.round(rng.normal(size=(sum(sizes), 3)), 1)
        y = rng.integers(0, 4, size=sum(sizes))
        y[start + 1:start + 3] = 2                  # the 2-row node is pure
        x[43:50] = 0.5                              # the 7-row node is constant
        for m in sizes:
            rows = np.arange(start, start + m)
            blocks.append(rows[column_orders(x[rows])])
            nodes.append((start, start + m))
            start += m
        order = np.concatenate(blocks, axis=1)
        feature, threshold, score = best_split(x, y, 4, criterion, order, nodes)
        for i, (a, b) in enumerate(nodes):
            (f, thr), want = split_of(x, y, 4, criterion, order[:, a:b])
            assert (feature[i], threshold[i], score[i]) == pytest.approx(
                (f, thr, want), nan_ok=True)
            assert (f == -1) == (i in (0, 1, 3))

    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    def test_order_of_a_subset_scores_only_those_rows(self, criterion):
        # a node's order lists its rows only; the other rows of x and y
        # take no part, as when best_split has the node's rows alone
        rng = np.random.default_rng(8)
        x = np.round(rng.normal(size=(40, 3)), 1)
        y = rng.integers(0, 3, size=40)
        rows = np.flatnonzero(rng.random(40) < 0.5)
        order = rows[column_orders(x[rows])]
        assert split_of(x, y, 3, criterion, order) == split_of(
            x[rows], y[rows], 3, criterion)


def full_scan_scores(x, y, n_classes, criterion):
    """(d x m-1) float scores of every (feature, position) candidate, by the
    expressions best_split evaluates, with -inf where no boundary is."""
    m, d = x.shape
    order = column_orders(x)
    onehot = np.eye(n_classes)[y]
    out = np.full((d, m - 1), -np.inf)
    for f in range(d):
        values = x[order[f], f]
        at = np.flatnonzero(values[:-1] < values[1:])
        left = np.cumsum(onehot[order[f]], axis=0)[at]
        out[f, at] = trees._float_scores(
            criterion, left, at + 1.0, np.tile(onehot.sum(axis=0), (at.size, 1)),
            np.full(at.size, float(m)))
    return out


def screened(x, y, n_classes, criterion):
    """Set of (feature, position) candidates the screen keeps."""
    m = x.shape[0]
    _, feature, at = trees._screen(
        criterion, np.ascontiguousarray(x.T), y.astype(np.uint8),
        np.bincount(y, minlength=n_classes)[None, :], column_orders(x),
        np.arange(m), np.array([m]))
    return set(zip(feature.tolist(), at.tolist()))


def relabelled_pair(rng, m, n_classes):
    """Two features whose label sequences differ by a cyclic relabelling of
    balanced classes: at every position the class counts of one are a
    permutation of the other's, so their scores tie in real arithmetic but
    sum the class terms in different orders."""
    y = rng.permutation(np.arange(m) % n_classes)
    sigma = np.roll(np.arange(n_classes), 1)
    pools = [list(np.flatnonzero(y == k)) for k in range(n_classes)]
    x1 = np.empty(m)
    for i in range(m):
        x1[pools[sigma[y[i]]].pop(0)] = i
    return np.column_stack([np.arange(m, dtype=float), x1]), y


def mirrored_labels(rng, m, n_classes):
    """Labels with y[m-1-i] = sigma(y[i]) for the swap sigma of the first
    and last class, so the boundary after row b and the one after row
    m-2-b have mirrored and permuted class counts: tied in real arithmetic,
    not always in float, as the class terms are summed in another order."""
    sigma = np.arange(n_classes)
    sigma[[0, -1]] = [n_classes - 1, 0]
    half = rng.integers(0, n_classes, size=m // 2)
    return np.concatenate([half, sigma[half][::-1]])


def proxy_bound(criterion, m):
    """The written bound on a proxy's rounding error at a node of m rows
    alone in its cumulative sum (the _*_proxy methods of trees._Run)."""
    u = trees._U
    if criterion is SplitCriterion.GINI:
        return 3 * u * m
    if criterion is SplitCriterion.TWOING:
        return 3 * u * m * m
    return (4 * trees._LOG_ERROR + 9) * u * m * m * np.log(m)


def node_margins(criterion, sizes, n_classes):
    """Each node's margin by its own criterion: two score errors, at
    (2K + 10 + L)(1 + log K)u per unit of score, and two proxy errors, the
    Entropy ones with four times the bounds of the nodes before them in
    the run, which its cumulative sum carries."""
    sizes = np.asarray(sizes, dtype=float)
    score = ((2 * n_classes + 10 + trees._LOG_ERROR)
             * (1.0 + np.log(n_classes)) * trees._U)
    scale = sizes * sizes if criterion is SplitCriterion.TWOING else sizes
    error = proxy_bound(criterion, sizes)
    if criterion is SplitCriterion.ENTROPY:
        error = error + 4 * (np.cumsum(error) - error)
    return 2 * scale * score + 2 * error


class TestSplitScreen:
    def assert_full_scan_choice(self, x, y, n_classes, criterion):
        """best_split picks the first float maximum in (feature, position)
        order, and the screen keeps every float maximum."""
        scores = full_scan_scores(x, y, n_classes, criterion)
        top = scores.max()
        maxima = set(zip(*(a.tolist() for a in np.nonzero(scores == top))))
        assert maxima <= screened(x, y, n_classes, criterion)
        f, b = min(maxima)
        rule, score = split_of(x, y, n_classes, criterion)
        values = np.sort(x[:, f])
        assert rule == (f, 0.5 * (values[b] + values[b + 1]))
        assert score == top
        return scores

    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    def test_relabelled_features_tie_in_real_arithmetic(self, criterion):
        rng = np.random.default_rng(30)
        rounding_decides = lower_wins = 0
        for _ in range(60):
            n_classes = int(rng.integers(3, 8))
            x, y = relabelled_pair(rng, n_classes * int(rng.integers(3, 30)),
                                   n_classes)
            scores = self.assert_full_scan_choice(x, y, n_classes, criterion)
            best0, best1 = scores[0].max(), scores[1].max()
            rounding_decides += best0 != best1
            lower_wins += best0 == best1
        # both outcomes occur: the float maxima of the two features differ
        # by rounding alone, and they agree, so the lower feature must win
        assert rounding_decides > 0 and lower_wins > 0

    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    def test_mirrored_boundaries_tie_in_real_arithmetic(self, criterion):
        rng = np.random.default_rng(31)
        rounding_decides = 0
        for _ in range(60):
            n_classes = int(rng.integers(3, 8))
            m = 2 * int(rng.integers(4, 40))
            y = mirrored_labels(rng, m, n_classes)
            if np.unique(y).size < 2:
                continue
            x = np.arange(m, dtype=float)[:, None]
            scores = self.assert_full_scan_choice(x, y, n_classes, criterion)[0]
            rounding_decides += np.any(scores[:m // 2 - 1]
                                       != scores[m // 2:][::-1])
        assert rounding_decides > 0

    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    def test_duplicated_columns_go_to_the_lower_feature(self, criterion):
        rng = np.random.default_rng(32)
        for _ in range(30):
            n_classes = int(rng.integers(2, 6))
            m = int(rng.integers(6, 60))
            base = rng.integers(0, 5, size=m).astype(float)
            x = np.column_stack([rng.normal(size=m) * 1e-3 + 10.0, base, base,
                                 -base])
            y = rng.integers(0, n_classes, size=m)
            if np.unique(y).size < 2 or np.unique(base).size < 2:
                continue
            self.assert_full_scan_choice(x, y, n_classes, criterion)
            (feature, _), _ = split_of(x, y, n_classes, criterion)
            assert feature != 2

    def test_proxy_rounding_cannot_drop_the_float_maximum(self):
        # 40 rows of each of 3 classes; feature 0 puts left counts
        # (16, 19, 20) below its one boundary, feature 1 (38, 36, 36). The
        # Gini proxies tie in real arithmetic (4432/110 = 28808/715), but
        # feature 0 has the larger float proxy and the smaller float score,
        # so a screen with no margin would return feature 0
        y = np.repeat(np.arange(3), 40)
        x = np.ones((120, 2))
        for f, left in enumerate([(16, 19, 20), (38, 36, 36)]):
            for k, count in enumerate(left):
                x[40 * k:40 * k + count, f] = 0.0
        kept = screened(x, y, 3, SplitCriterion.GINI)
        assert kept == {(0, 54), (1, 109)}
        self.assert_full_scan_choice(x, y, 3, SplitCriterion.GINI)
        rule, _ = split_of(x, y, 3, SplitCriterion.GINI)
        assert rule == (1, 0.5)

    def test_margin_exceeds_the_worst_proxy_error_at_1e5_rows(self):
        # the written bound on each proxy's rounding error, and so the
        # margin, must cover the proxy's actual error, measured against
        # 64-bit-mantissa long double arithmetic
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("long double is no wider than double here")
        m = 100_000
        rng = np.random.default_rng(33)
        draws = [rng.choice(3, size=m, p=[0.9, 0.07, 0.03]),
                 rng.integers(0, 8, size=m)]
        for y in draws:
            n_classes = int(y.max()) + 1
            class_n = np.bincount(y, minlength=n_classes)
            onehot = np.eye(n_classes, dtype=np.int64)[y]
            left = np.cumsum(onehot, axis=0)[:-1].astype(np.longdouble)
            right = class_n.astype(np.longdouble) - left
            n_left = np.arange(1, m, dtype=np.longdouble)
            n_right = m - n_left

            def xlogx(v):
                return v * np.log(np.where(v > 0, v, 1))

            exact = {
                SplitCriterion.GINI: (left ** 2).sum(axis=1) / n_left
                + (right ** 2).sum(axis=1) / n_right,
                SplitCriterion.ENTROPY: xlogx(left).sum(axis=1)
                + xlogx(right).sum(axis=1) - xlogx(n_left) - xlogx(n_right)
                - xlogx(class_n.astype(np.longdouble)).sum(),
                SplitCriterion.TWOING: np.abs(
                    np.outer(n_left, class_n) - m * left).sum(axis=1) ** 2
                / (n_left * n_right),
            }
            run = trees._Run(class_n[None, :])
            for criterion, want in exact.items():
                got = run.proxy(criterion, y[None, :].astype(np.uint8))[0, :-1]
                worst = float(np.abs(got - want).max())
                assert 0.0 < worst <= proxy_bound(criterion, m)
                assert 2.0 * worst < trees._margin(m, n_classes)

    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    def test_nodes_laid_end_to_end_stay_within_their_margins(self, criterion):
        # the Entropy cumsum of a run carries each node's rounding into the
        # next; every node's proxies stay within half its own criterion's
        # margin, and so half the run's, of the proxies it has alone
        rng = np.random.default_rng(34)
        sizes = [3000, 40, 5000, 2, 700]
        labels = [rng.integers(0, 6, size=m) for m in sizes]
        class_n = np.array([np.bincount(y, minlength=6) for y in labels])
        together = trees._Run(class_n).proxy(
            criterion, np.concatenate(labels)[None, :].astype(np.uint8))[0]
        margin = node_margins(criterion, sizes, 6)
        run_margin = trees._margin(sum(sizes), 6)
        at = 0
        for j, y in enumerate(labels):
            alone = trees._Run(class_n[j:j + 1]).proxy(
                criterion, y[None, :].astype(np.uint8))[0]
            drift = np.abs(together[at:at + y.size - 1] - alone[:-1])
            assert drift.max(initial=0.0) <= margin[j] / 2
            assert drift.max(initial=0.0) <= run_margin / 2
            at += y.size

    @pytest.mark.parametrize("n_classes", [2, 5, 20])
    def test_run_margin_covers_every_node_under_every_criterion(
            self, n_classes):
        rng = np.random.default_rng(35)
        runs = [[2], [5000], [2, 5000], [5000, 2], [2] * 2500]
        runs += [rng.integers(2, 5001, size=rng.integers(1, 12)).tolist()
                 for _ in range(200)]
        for sizes in runs:
            margin = trees._margin(sum(sizes), n_classes)
            for criterion in SplitCriterion:
                assert node_margins(criterion, sizes, n_classes).max() <= margin


# Candidates the float stage scored on FS1 fold 0, per label: of
# GeneratorConfig() with cv seed 0, and of the 20-name x 250-day panel at
# seed 1 with cv seed 1. A margin that floods the float stage shows here.
SCREEN_WORK = {
    (datagen.GeneratorConfig(), 0): {
        "DT-Gini": 47, "DT-Entropy": 78, "DT-Twoing": 61, "BaggedTree": 1251},
    (datagen.GeneratorConfig(n_counterparties=20, n_days=250, seed=1), 1): {
        "DT-Gini": 20, "DT-Entropy": 20, "DT-Twoing": 20, "BaggedTree": 619},
}


class TestScreenWork:
    @pytest.mark.parametrize("config, seed", list(SCREEN_WORK),
                             ids=["GeneratorConfig", "20x250"])
    def test_float_stage_scores_few_candidates(self, monkeypatch, config,
                                               seed):
        scored = []
        float_scores = trees._float_scores
        monkeypatch.setattr(trees, "_float_scores", lambda c, left, *rest: (
            scored.append(left.shape[0]) or float_scores(c, left, *rest)))
        dataset = core.build_dataset(datagen.generate_panel(config),
                                     core.FeatureSelection.FS1)
        train = dataset.subset(
            evaluation.stratified_folds(dataset, 10, seed).training_rows(0))
        for label, count in SCREEN_WORK[(config, seed)].items():
            scored.clear()
            evaluation.make_classifier_spec(label).fit(
                train, evaluation.fold_seed(seed, 0))
            assert 0 < sum(scored) <= 1.01 * count, label


def node_labels(rng, m, n_classes, kind):
    """m labels of one node: drawn from every class, from a random subset
    of the classes, or all of one class but one row."""
    if kind == "every class":
        return rng.integers(0, n_classes, size=m)
    if kind == "some classes":
        classes = rng.choice(n_classes, size=rng.integers(1, n_classes + 1),
                             replace=False)
        return rng.choice(classes, size=m)
    y = np.full(m, rng.integers(0, n_classes))
    y[rng.integers(0, m)] = (y[0] + 1) % n_classes
    return y


def random_run(rng, sizes, n_classes, rows):
    """(class_n, labels) of nodes of the given sizes laid end to end, each
    of the rows of labels listing every node's labels in a random order."""
    kinds = ["every class", "some classes", "all but one"]
    nodes = [node_labels(rng, m, n_classes, kinds[rng.integers(0, 3)])
             for m in sizes]
    class_n = np.array([np.bincount(y, minlength=n_classes) for y in nodes])
    labels = np.array([np.concatenate([rng.permutation(y) for y in nodes])
                       for _ in range(rows)], dtype=np.uint8)
    return class_n, labels


def twoing_bits(class_n, labels):
    return trees._Run(class_n).proxy(SplitCriterion.TWOING, labels).tobytes()


class TestTwoingProxy:
    @pytest.mark.parametrize("n_classes", [2, 5, 20])
    def test_matches_the_k_pass_reference(self, n_classes):
        rng = np.random.default_rng(36)
        runs = [[2], [2] * 40, [5000], [2, 5000, 3], [5000, 2]]
        runs += [rng.integers(2, 300, size=rng.integers(1, 12)).tolist()
                 for _ in range(40)]
        for sizes in runs:
            rows = 2 if sum(sizes) >= 5000 else 6
            class_n, labels = random_run(rng, sizes, n_classes, rows)
            assert twoing_bits(class_n, labels) == ref.twoing_proxy(
                class_n, labels).tobytes()

    @pytest.mark.parametrize("n_classes", [2, 5, 20])
    def test_relabelling_the_classes_keeps_every_bit(self, n_classes):
        # the proxy is a square and a division of an exact integer D, so
        # the order in which the classes' terms are summed cannot show
        rng = np.random.default_rng(37)
        for _ in range(30):
            sizes = rng.integers(2, 400, size=rng.integers(1, 8)).tolist()
            class_n, labels = random_run(rng, sizes, n_classes, 4)
            sigma = rng.permutation(n_classes)
            relabelled = np.empty_like(class_n)
            relabelled[:, sigma] = class_n
            assert twoing_bits(class_n, labels) == twoing_bits(
                relabelled, sigma[labels].astype(np.uint8))

    def test_fit_peaks_below_the_k_pass_proxy(self):
        # DT-Twoing on FS1 fold 0 of the 20 x 250 panel (K = 20) peaked at
        # 3.28 MiB under tracemalloc with the K-pass proxy
        config, seed = list(SCREEN_WORK)[1]
        dataset = core.build_dataset(datagen.generate_panel(config),
                                     core.FeatureSelection.FS1)
        train = dataset.subset(
            evaluation.stratified_folds(dataset, 10, seed).training_rows(0))
        tracemalloc.start()
        try:
            fit_tree(train, SplitCriterion.TWOING)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.28 * 2 ** 20


class TestFitTree:
    def test_pure_dataset_single_leaf(self):
        train = Dataset(x=np.arange(6.0)[:, None], y=np.zeros(6, dtype=int),
                        class_names=("a", "b"), feature_names=("f",))
        model = fit_tree(train)
        assert len(model.nodes) == 1 and model.nodes[0].is_leaf
        assert model.classify_batch(np.array([[99.0]]))[0] == 0

    def test_four_quadrants(self):
        rng = np.random.default_rng(7)
        centers = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        xs, ys = [], []
        for label, (cx, cy) in enumerate(centers):
            pts = rng.normal(size=(5, 2)) * 0.2 + np.array([cx, cy], dtype=float)
            xs.append(pts)
            ys.append(np.full(5, label))
        train = Dataset(x=np.vstack(xs), y=np.concatenate(ys),
                        class_names=("q00", "q01", "q10", "q11"),
                        feature_names=("u", "v"))
        model = fit_tree(train, criterion=SplitCriterion.GINI, max_splits=3)
        assert model.internal_count() == 3
        assert np.all(model.classify_batch(train.x) == train.y)

    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    def test_no_conflicts_zero_training_error(self, criterion):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(25, 3))
            y = rng.integers(0, 4, size=25)
            train = Dataset(x=x, y=y, class_names=("a", "b", "c", "d"),
                            feature_names=("f0", "f1", "f2"))
            model = fit_tree(train, criterion=criterion, max_splits=24)
            assert np.all(model.classify_batch(x) == y)

    def test_budget_respected(self):
        train = make_blobs([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], 20,
                           scale=0.8, seed=8)
        for z in (1, 2, 5, 20):
            model = fit_tree(train, max_splits=z)
            assert model.internal_count() <= z
        assert fit_tree(train, max_splits=1).internal_count() == 1

    def test_default_budget(self):
        train = make_blobs([[0.0], [2.0]], 5, scale=0.3, seed=9)
        assert fit_tree(train).max_splits == DEFAULT_MAX_SPLITS == 20

    def test_breadth_first_budget_allocation(self):
        # stack two easy splits at depth 1; with budget 2 the root plus the
        # FIRST (left) child must be expanded, not a deeper chain
        rng = np.random.default_rng(10)
        x = np.concatenate([rng.uniform(0, 1, 30), rng.uniform(2, 3, 30)])
        y = np.concatenate([np.where(rng.uniform(0, 1, 30) < 0.5, 0, 1),
                            np.where(rng.uniform(0, 1, 30) < 0.5, 2, 3)])
        x2 = np.where((y == 0) | (y == 2), 0.0, 1.0) + rng.normal(size=60) * 0.01
        train = Dataset(x=np.column_stack([x, x2]), y=y,
                        class_names=("a", "b", "c", "d"),
                        feature_names=("f0", "f1"))
        model = fit_tree(train, max_splits=2)
        root = model.nodes[0]
        assert not root.is_leaf
        assert not model.nodes[root.left].is_leaf     # expanded second
        assert model.nodes[root.right].is_leaf        # budget exhausted

    def test_impure_unsplittable_node_becomes_majority_leaf(self):
        x = np.array([[0.0], [0.0], [0.0], [1.0]])
        y = np.array([1, 1, 0, 0])
        train = Dataset(x=x, y=y, class_names=("a", "b"), feature_names=("f",))
        model = fit_tree(train)
        # the left child {0,0,0} has labels {1,1,0}: majority 1
        assert model.classify_batch(np.array([[0.0]]))[0] == 1
        assert model.classify_batch(np.array([[1.0]]))[0] == 0

    def test_majority_tie_takes_lower_class(self):
        x = np.array([[0.0], [0.0]])
        y = np.array([1, 0])
        train = Dataset(x=x, y=y, class_names=("a", "b"), feature_names=("f",))
        model = fit_tree(train)
        assert model.classify_batch(np.array([[0.0]]))[0] == 0

    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    def test_negative_gain_raises_a_typed_error(self, monkeypatch, criterion):
        # a split score below zero can only come from a fault in the
        # search: purity gains and Twoing scores are both non-negative
        train = make_blobs([[0.0], [2.0]], 6, scale=0.3, seed=18)
        found = trees.best_split

        def lowered(*args):
            feature, threshold, score = found(*args)
            return feature, threshold, score - 2.0

        monkeypatch.setattr(trees, "best_split", lowered)
        with pytest.raises(NegativeGain, match="negative split score"):
            fit_tree(train, criterion=criterion)

    def test_empty_and_bad_budget(self):
        train = make_blobs([[0.0], [2.0]], 4, scale=0.3, seed=11)
        empty = Dataset(x=np.empty((0, 1)), y=np.empty(0, dtype=int),
                        class_names=("a", "b"), feature_names=("f",))
        with pytest.raises(TooFewSamples, match="cannot fit on zero samples"):
            fit_tree(empty)
        with pytest.raises(BadConfig):
            fit_tree(train, max_splits=0)

    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    def test_monotone_feature_transform_invariance(self, criterion):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        train = Dataset(x=x, y=y, class_names=("a", "b", "c"),
                        feature_names=("f0", "f1", "f2"))
        warped_x = x.copy()
        warped_x[:, 0] = warped_x[:, 0] ** 3        # strictly increasing
        warped = Dataset(x=warped_x, y=y, class_names=train.class_names,
                         feature_names=train.feature_names)
        base = fit_tree(train, criterion=criterion)
        alt = fit_tree(warped, criterion=criterion)
        # training rows route identically: a row's value is among each
        # visited node's observed values, so every midpoint comparison is
        # decided by order alone (off-sample points may fall inside a
        # node-subset gap, where midpoints are not order-invariant)
        assert np.array_equal(base.classify_batch(train.x),
                              alt.classify_batch(warped.x))
        assert base.internal_count() == alt.internal_count()
        assert all(na.feature == nb.feature and na.label == nb.label
                   for na, nb in zip(base.nodes, alt.nodes))


class TestClassifyAndExport:
    def test_rewalk_oracle(self):
        train = make_blobs([[0.0, 0.0], [2.0, 1.0], [1.0, 3.0]], 15,
                           scale=0.7, seed=13)
        model = fit_tree(train, max_splits=10)
        rng = np.random.default_rng(14)
        for _ in range(50):
            q = rng.normal(size=2) * 2
            at = 0
            while not model.nodes[at].is_leaf:
                node = model.nodes[at]
                at = node.left if q[node.feature] < node.threshold else node.right
            assert model.classify_batch(q[None])[0] == model.nodes[at].label

    def test_memorization(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(20, 2))
        y = rng.integers(0, 3, size=20)
        train = Dataset(x=x, y=y, class_names=("a", "b", "c"),
                        feature_names=("f0", "f1"))
        model = fit_tree(train, max_splits=19)
        assert np.all(model.classify_batch(x) == y)

    def test_dimension_mismatch(self):
        train = make_blobs([[0.0, 0.0], [2.0, 2.0]], 5, scale=0.4, seed=16)
        model = fit_tree(train)
        with pytest.raises(DimensionMismatch):
            model.classify_batch(np.array([[1.0]]))

    def test_scores_are_one_hot(self):
        train = make_blobs([[0.0], [2.0]], 6, scale=0.3, seed=17)
        model = fit_tree(train)
        s = model.scores_batch(np.array([[0.1]]))[0]
        assert sorted(s.tolist()) == [0.0, 1.0]


class TestBagged:
    def test_single_tree_committee_equals_its_tree(self):
        train = make_blobs([[0.0, 0.0], [2.0, 2.0]], 12, scale=0.8, seed=19)
        bag = fit_bagged(train, n_trees=1, seed=5)
        rows = bootstrap_rows(train.n, seed=5, tree_index=0)
        lone = fit_tree(train.subset(rows))
        queries = np.random.default_rng(20).normal(size=(40, 2)) * 2 + 1
        assert np.array_equal(bag.classify_batch(queries),
                              lone.classify_batch(queries))

    def test_vote_tally_matches_recount(self):
        train = make_blobs([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]], 10,
                           scale=0.9, seed=21)
        bag = fit_bagged(train, n_trees=7, seed=3)
        queries = np.random.default_rng(22).normal(size=(15, 2)) + 1
        votes = bag.scores_batch(queries)
        assert votes.sum(axis=1) == pytest.approx(7.0)
        for i, q in enumerate(queries):
            recount = np.zeros(3)
            for tree in bag.trees:
                recount[tree.classify_batch(q[None])[0]] += 1
            assert np.array_equal(votes[i], recount)

    def test_tree_order_permutation_invariance(self):
        train = make_blobs([[0.0], [2.0]], 10, scale=0.6, seed=23)
        bag = fit_bagged(train, n_trees=9, seed=1)
        flipped = fit_bagged(train, n_trees=9, seed=1)
        flipped.trees = list(reversed(flipped.trees))
        queries = np.linspace(-1, 3, 25)[:, None]
        assert np.array_equal(bag.scores_batch(queries),
                              flipped.scores_batch(queries))

    def test_default_committee_size_and_determinism(self):
        train = make_blobs([[0.0], [2.0]], 8, scale=0.5, seed=24)
        bag = fit_bagged(train)
        assert len(bag.trees) == DEFAULT_BAG_SIZE == 30
        again = fit_bagged(train)
        queries = np.linspace(-1, 3, 20)[:, None]
        assert np.array_equal(bag.classify_batch(queries),
                              again.classify_batch(queries))

    def test_growing_committee_keeps_early_trees(self):
        train = make_blobs([[0.0], [2.0]], 8, scale=0.5, seed=25)
        small = fit_bagged(train, n_trees=3, seed=9)
        large = fit_bagged(train, n_trees=6, seed=9)
        queries = np.linspace(-1, 3, 20)[:, None]
        for t in range(3):
            assert np.array_equal(small.trees[t].classify_batch(queries),
                                  large.trees[t].classify_batch(queries))

    def test_committee_searches_once_per_round_and_draws_no_subsets(
            self, monkeypatch):
        # the trees grow together, so the committee makes one search per
        # round, as many as its deepest tree alone, whatever its size
        train = make_blobs([[0.0, 0.0], [1.5, 0.0], [0.0, 1.5]], 40,
                           scale=0.9, seed=27)
        calls = []
        search, subset = trees.best_split, Dataset.subset
        monkeypatch.setattr(trees, "best_split", lambda *args: (
            calls.append("best_split") or search(*args)))
        monkeypatch.setattr(Dataset, "subset", lambda self, rows: (
            calls.append("subset") or subset(self, rows)))
        rounds = []
        for n_trees in (1, 5, 30):
            calls.clear()
            fit_bagged(train, n_trees=n_trees, seed=4)
            assert calls == ["best_split"] * len(calls)
            rounds.append(len(calls))
        alone = []
        for t in range(30):
            sample = subset(train, bootstrap_rows(train.n, seed=4, tree_index=t))
            calls.clear()
            fit_tree(sample)
            alone.append(len(calls))
        assert rounds == [alone[0], max(alone[:5]), max(alone)]
        assert max(alone) <= DEFAULT_MAX_SPLITS + 1

    def test_bad_committee_size(self):
        train = make_blobs([[0.0], [2.0]], 8, scale=0.5, seed=26)
        with pytest.raises(BadConfig):
            fit_bagged(train, n_trees=0)
