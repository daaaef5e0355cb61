"""The SVM, NN and tree inner loops against their straightforward versions.

`loop_reference` rebuilds every vector on every iteration, and sorts and
scores every split candidate at every tree node; the loops in `cdsproxy`
update only what changes, and trees presort once per fit and screen
candidates by integer counts. Swapped in, the reference must give the same
fitted models bit for bit. Its dense interior point on Q = yy' * K serves
here as a start for the pairwise ascent.
"""
from collections import deque

import numpy as np
import pytest

import loop_reference as ref
from conftest import make_blobs, random_dataset
from cdsproxy import evaluation, neuralnet, svm, trees
from cdsproxy.core import Dataset, FeatureSelection, build_dataset
from cdsproxy.datagen import GeneratorConfig, generate_panel
from cdsproxy.errors import NoConvergence
from cdsproxy.neuralnet import (
    CONVEX_LBFGS_MEMORY,
    LBFGS_MEMORY,
    Activation,
    fit_neural_net,
)
from cdsproxy.svm import (
    DEFAULT_COST,
    DEFAULT_KKT_TOL,
    DEFAULT_MAX_UPDATES,
    KernelSpec,
    SvmKernel,
    SvmRoute,
)
from cdsproxy.trees import SplitCriterion, bootstrap_rows, fit_bagged, fit_tree


def overlapping_problem(seed, n_per_side=40, d=3):
    """Two overlapping Gaussian classes: many updates, many free vectors."""
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(size=(n_per_side, d)) - 0.3,
                   rng.normal(size=(n_per_side, d)) + 0.3])
    y = np.concatenate([np.ones(n_per_side), -np.ones(n_per_side)])
    order = rng.permutation(y.size)
    return x[order], y[order]


def reference_fit(x, y, kernel, gram, alpha=None):
    """fit_svm_binary on the reference loop: from alpha, or from 0, at the
    module's C, KKT tolerance and update cap, with -y * grad formed through
    Q."""
    alpha = np.zeros(y.size) if alpha is None else alpha
    minus_yg = -y * (ref.label_product(y, gram) @ alpha - 1.0)
    return ref.pairwise_ascent(x, y, kernel, svm.DEFAULT_COST,
                               svm.DEFAULT_KKT_TOL, svm.DEFAULT_MAX_UPDATES,
                               gram, minus_yg, alpha, 0)


def run_both(x, y, spec, gram, alpha):
    """Both loops from copies of one alpha: (result or error) per loop."""
    outcomes = []
    for fit in (svm.fit_svm_binary, reference_fit):
        start = alpha.copy()
        try:
            outcomes.append(fit(x, y, spec, gram=gram, alpha=start))
        except NoConvergence as exc:
            outcomes.append((str(exc), start))
    return outcomes


def assert_same_machine(got, want):
    assert got.n_updates == want.n_updates
    assert np.array_equal(got.alpha, want.alpha)
    assert got.bias == want.bias
    assert got.kkt_gap == want.kkt_gap


KINDS = [SvmKernel.LINEAR, SvmKernel.GAUSSIAN, SvmKernel.POLYNOMIAL]


class TestPairwiseAscent:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_cold_start_matches_reference(self, kind, seed):
        x, y = overlapping_problem(seed)
        spec = KernelSpec(kind).resolve(x.shape[1])
        gram = spec.gram(x, x)
        got, want = run_both(x, y, spec, gram, np.zeros(y.size))
        assert got.n_updates > 50
        assert_same_machine(got, want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cold_start_from_y_matches_the_start_through_q(self, kind):
        # with no start, fit_svm_binary starts from y - K (y * 0), which
        # is y and -y * (Q 0 - 1) bit for bit on a finite Gram matrix
        x, y = overlapping_problem(5)
        spec = KernelSpec(kind).resolve(x.shape[1])
        gram = spec.gram(x, x)
        alpha = np.zeros(y.size)
        start = -y * (ref.label_product(y, gram) @ alpha - 1.0)
        assert np.array_equal(start, y)
        assert np.array_equal(y - gram @ (y * alpha), y)
        want = ref.pairwise_ascent(x, y, spec, DEFAULT_COST, DEFAULT_KKT_TOL,
                                   DEFAULT_MAX_UPDATES, gram, start, alpha, 0)
        assert_same_machine(svm.fit_svm_binary(x, y, spec), want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_interior_point_start_matches_reference(self, monkeypatch, kind):
        # from the alpha of the reference's dense solve on Q, then, for a
        # kernel with a finite feature map, from the one through its factor
        x, y = overlapping_problem(3)
        spec = KernelSpec(kind).resolve(x.shape[1])
        gram = spec.gram(x, x)
        starts = [ref.interior_point(ref.label_product(y, gram), y, DEFAULT_COST)[0]]
        if kind is not SvmKernel.GAUSSIAN:
            starts.append(svm._interior_point(gram, y, svm._kernel_factor(spec, x))[0])
        # a tolerance below the interior point's leaves polishing to do
        monkeypatch.setattr(svm, "DEFAULT_KKT_TOL", 1e-9)
        for alpha in starts:
            got, want = run_both(x, y, spec, gram, alpha)
            assert got.n_updates > 0
            assert_same_machine(got, want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_capped_attempt_raises_at_the_same_update(self, monkeypatch, kind):
        x, y = overlapping_problem(4)
        spec = KernelSpec(kind).resolve(x.shape[1])
        gram = spec.gram(x, x)
        monkeypatch.setattr(svm, "DEFAULT_MAX_UPDATES", 37)
        (got_msg, got_alpha), (want_msg, want_alpha) = run_both(
            x, y, spec, gram, np.zeros(y.size))
        assert got_msg == want_msg
        assert "after 37 pair updates" in got_msg
        assert np.array_equal(got_alpha, want_alpha)

    def test_partners_tied_on_gain_go_to_the_lower_index(self, monkeypatch):
        # from alpha = 0 the steepest index is 0, and rows 1 and 2 mirror
        # each other about it: the same b and the same curvature, so the
        # same gain, and the first update must pair 0 with 1
        x = np.array([[0.0], [-1.0], [1.0], [3.0]])
        y = np.array([1.0, -1.0, -1.0, 1.0])
        spec = KernelSpec(SvmKernel.LINEAR)
        gram = spec.gram(x, x)
        monkeypatch.setattr(svm, "DEFAULT_MAX_UPDATES", 1)
        (got_msg, got_alpha), (want_msg, want_alpha) = run_both(
            x, y, spec, gram, np.zeros(y.size))
        assert got_msg == want_msg
        assert np.array_equal(got_alpha, want_alpha)
        assert got_alpha[1] > 0.0 and got_alpha[2] == 0.0
        monkeypatch.setattr(svm, "DEFAULT_MAX_UPDATES", 1_000)
        got, want = run_both(x, y, spec, gram, np.zeros(y.size))
        assert_same_machine(got, want)

    def test_multiclass_fit_with_fallback_machines_matches_reference(
            self, monkeypatch):
        # a linear fit: every pair machine takes the interior point through
        # its rows, then the polish
        train = random_dataset(60, 2, 2, seed=0)
        spec = KernelSpec(SvmKernel.LINEAR)
        got = svm.fit_svm_multiclass(train, kernel=spec)
        monkeypatch.setattr(svm, "fit_svm_binary", reference_fit)
        want = svm.fit_svm_multiclass(train, kernel=spec)
        assert all(m.ip_iterations > 0 for m in got.machines)
        for a, b in zip(got.machines, want.machines):
            assert_same_machine(a, b)
            assert a.ip_iterations == b.ip_iterations

    @pytest.mark.parametrize("repeated,cap,fallbacks", [
        # the first 5 rows, of class 0, again: K is singular on the pairs
        # of class 0, and the active set's first Cholesky fails on their
        # machines
        pytest.param(5, svm._AS_MAX_ROUNDS, 2, id="FS1-repeated-rows"),
        # K has full rank; a cap of one round sends every machine back
        pytest.param(0, 1, 3, id="FS1-capped")])
    def test_fold_fit_with_ascent_fallback_machines_matches_reference(
            self, monkeypatch, repeated, cap, fallbacks):
        # SVM-Poly on FS1 fold 0 of the 3-name x 30-day panel: 969
        # monomials, no feature-map factor, and the machines the active set
        # fails fall back to the ascent from alpha = 0
        panel = generate_panel(GeneratorConfig(n_counterparties=3, n_days=30,
                                               seed=0))
        dataset = build_dataset(panel, FeatureSelection.FS1)
        train = dataset.subset(
            evaluation.stratified_folds(dataset, 2, seed=0).training_rows(0))
        train = Dataset(x=np.vstack([train.x, train.x[:repeated]]),
                        y=np.concatenate([train.y, train.y[:repeated]]),
                        class_names=train.class_names,
                        feature_names=train.feature_names)
        spec = KernelSpec(SvmKernel.POLYNOMIAL)
        monkeypatch.setattr(svm, "_AS_MAX_ROUNDS", cap)
        got = svm.fit_svm_multiclass(train, kernel=spec)
        monkeypatch.setattr(svm, "fit_svm_binary", reference_fit)
        want = svm.fit_svm_multiclass(train, kernel=spec)
        ascent = [m for m in got.machines if m.route is SvmRoute.ASCENT]
        assert len(ascent) == fallbacks
        assert all(m.n_updates > 0 for m in ascent)
        for a, b in zip(got.machines, want.machines):
            assert_same_machine(a, b)
            assert a.active_set_rounds == b.active_set_rounds


class TestFeatureMapInteriorPoint:
    @pytest.mark.parametrize("kind", [SvmKernel.LINEAR, SvmKernel.POLYNOMIAL])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_solve_through_the_map_matches_the_solve_on_q(self, kind, seed):
        # the reference factors the 80 x 80 Q + D each iteration; the solve
        # through G's 3 or 20 columns, by the Woodbury identity, rounds
        # otherwise, and must reach the same bound sets in as many
        # iterations, reading K only
        x, y = overlapping_problem(seed)
        spec = KernelSpec(kind).resolve(x.shape[1])
        gram = spec.gram(x, x)
        want, want_iterations = ref.interior_point(ref.label_product(y, gram),
                                                   y, DEFAULT_COST)
        gram.flags.writeable = False
        alpha, iterations = svm._interior_point(gram, y,
                                                svm._kernel_factor(spec, x))
        assert iterations == want_iterations > 0
        assert np.array_equal(alpha == 0.0, want == 0.0)
        assert np.array_equal(alpha == DEFAULT_COST, want == DEFAULT_COST)
        assert np.abs(alpha - want).max() <= 1e-6 * DEFAULT_COST


class TestNetworkTraining:
    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("n_classes", [2, 3, 5, 8, 12, 20])
    def test_training_matches_reference(self, monkeypatch, n_classes,
                                        activation):
        train = random_dataset(6 * n_classes, 4, n_classes, seed=n_classes)
        monkeypatch.setattr(neuralnet, "DEFAULT_EPOCHS", 60)
        got = fit_neural_net(train, activation=activation, seed=n_classes)
        monkeypatch.setattr(neuralnet, "_forward_state", ref.forward_state)
        monkeypatch.setattr(neuralnet, "_gradient_from_state",
                            ref.gradient_from_state)
        want = fit_neural_net(train, activation=activation, seed=n_classes)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(got.params, name),
                                  getattr(want.params, name))
        assert got.loss_history == want.loss_history
        assert got.epochs_run == want.epochs_run > 10
        assert got.final_grad_norm == want.final_grad_norm

    @pytest.mark.parametrize("activation", list(Activation))
    def test_early_stop_matches_reference(self, monkeypatch, activation):
        # blobs this far apart drive the cross-entropy towards 0, so the run
        # ends on the gradient tolerance well before the iteration cap
        train = make_blobs([[-6.0, 0.0], [6.0, 0.0], [0.0, 6.0]], 5,
                           scale=0.1, seed=5)
        monkeypatch.setattr(neuralnet, "DEFAULT_GRAD_TOL", 1e-3)
        got = fit_neural_net(train, activation=activation, seed=5)
        monkeypatch.setattr(neuralnet, "_forward_state", ref.forward_state)
        monkeypatch.setattr(neuralnet, "_gradient_from_state",
                            ref.gradient_from_state)
        want = fit_neural_net(train, activation=activation, seed=5)
        assert got.epochs_run == want.epochs_run < neuralnet.DEFAULT_EPOCHS
        assert got.loss_history == want.loss_history
        assert got.final_grad_norm == want.final_grad_norm
        assert got.warning == want.warning
        assert np.array_equal(got.params.w1, want.params.w1)


class TestCompactDirection:
    @pytest.mark.parametrize("kept", [LBFGS_MEMORY, CONVEX_LBFGS_MEMORY])
    def test_matches_the_two_loop_recursion(self, kept):
        # pairs from a convex quadratic, with steps of very different
        # lengths; pairs the s'y <= eps y'y rule rejects (negative and zero
        # curvature); and enough accepted ones to drop the oldest many
        # times and to move the window of stored pairs back to the front
        # of its arrays twice
        rng = np.random.default_rng(17)
        size = 40
        a = rng.normal(size=(size, size))
        hessian = a @ a.T / size + 0.1 * np.eye(size)
        memory = neuralnet._CompactMemory(size, kept)
        pairs = deque(maxlen=kept)
        fed = []
        for i in range(2 * memory.sy.size + 3):
            s = rng.normal(size=size) * 10.0 ** rng.uniform(-4, 1)
            fed.append((s, hessian @ s))
            if i in (2, 7, 50):
                fed.append((s, -(hessian @ s)))
        fed.append((np.eye(size)[0], np.eye(size)[1]))
        checked = 0
        for s, y in [(None, None)] + fed:
            if s is not None:
                memory.push(s, y)
                sy = float(s @ y)
                if sy > np.finfo(float).eps * float(y @ y):
                    pairs.append((s, y, 1.0 / sy))
            assert memory.m == len(pairs)
            for _ in range(3):
                g = rng.normal(size=size)
                got = memory.direction(g)
                want = ref.lbfgs_direction(g, pairs)
                rel = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert rel <= 1e-12, (len(pairs), rel)
                checked += 1
        assert len(pairs) == kept and checked == 3 * (len(fed) + 1)
        assert memory.sy.size == 4 * kept
        memory.clear()
        g = rng.normal(size=size)
        assert np.array_equal(memory.direction(g), -g)
        s, y = fed[0]
        memory.push(s, y)
        want = ref.lbfgs_direction(g, [(s, y, 1.0 / float(s @ y))])
        assert np.allclose(memory.direction(g), want, rtol=1e-12, atol=0.0)


def assert_same_tree_fit(train, criterion, max_splits=20):
    got = fit_tree(train, criterion=criterion, max_splits=max_splits)
    want = ref.fit_tree(train, criterion=criterion, max_splits=max_splits)
    assert got.nodes == want.nodes
    return got


def assert_same_committee(train, criterion, max_splits, n_trees, seed):
    """Every tree of a committee, grown together, against the same tree
    grown alone on its bootstrap draw. fit_bagged grows Gini committees;
    the lockstep growth it shares with fit_tree takes every criterion."""
    if criterion is SplitCriterion.GINI:
        grown = [tree.nodes for tree in fit_bagged(
            train, n_trees=n_trees, max_splits=max_splits, seed=seed).trees]
    else:
        draws = np.array([np.bincount(bootstrap_rows(train.n, seed, t),
                                      minlength=train.n)
                          for t in range(n_trees)])
        grown = trees._grow(train, criterion, max_splits, draws)
    assert len(grown) == n_trees
    for t, nodes in enumerate(grown):
        draw = train.subset(bootstrap_rows(train.n, seed, t))
        want = ref.fit_tree(draw, criterion=criterion, max_splits=max_splits)
        assert nodes == want.nodes, f"tree {t}"


def integer_grid_rows(n, n_classes, seed):
    """Four values per column, and the last column repeats the first, so
    most candidates tie another in real arithmetic."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, size=(n, 4)).astype(float)
    x[:, 3] = x[:, 0]
    return Dataset(x=x, y=rng.integers(0, n_classes, size=n),
                   class_names=tuple(f"c{j}" for j in range(n_classes)),
                   feature_names=tuple(f"f{i}" for i in range(4)))


CLASS_COUNTS = [2, 3, 5, 8, 12, 20]
# budgets below, at and above a round's frontier: a frontier larger than
# the splits left, nodes that are pure or unsplittable in mid-round, and
# trees of one committee that finish in different rounds
BUDGETS = [1, 2, 3, 7]


class TestTreeFits:
    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    @pytest.mark.parametrize("n_classes", CLASS_COUNTS)
    def test_continuous_rows(self, criterion, n_classes):
        train = random_dataset(30 * n_classes, 5, n_classes, seed=n_classes)
        model = assert_same_tree_fit(train, criterion)
        assert model.internal_count() > 10

    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    @pytest.mark.parametrize("n_classes", CLASS_COUNTS)
    def test_integer_grid_rows_with_heavy_ties(self, criterion, n_classes):
        train = integer_grid_rows(25 * n_classes, n_classes, 100 + n_classes)
        for max_splits in BUDGETS + [40]:
            assert_same_tree_fit(train, criterion, max_splits=max_splits)

    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    @pytest.mark.parametrize("n_classes", CLASS_COUNTS)
    def test_bootstrap_draws_with_duplicate_rows(self, criterion, n_classes):
        base = random_dataset(20 * n_classes, 4, n_classes, seed=200 + n_classes)
        for t in range(3):
            train = base.subset(bootstrap_rows(base.n, seed=n_classes, tree_index=t))
            assert np.unique(train.x[:, 0]).size < train.n
            for max_splits in BUDGETS + [20]:
                assert_same_tree_fit(train, criterion, max_splits=max_splits)

    @pytest.mark.parametrize("n_trees", [1, 2, 30])
    @pytest.mark.parametrize("max_splits", BUDGETS)
    @pytest.mark.parametrize("criterion", list(SplitCriterion))
    def test_committee_matches_its_trees_grown_alone(self, criterion,
                                                     max_splits, n_trees):
        assert_same_committee(integer_grid_rows(60, 5, 300), criterion,
                              max_splits, n_trees, seed=max_splits)
        assert_same_committee(random_dataset(60, 3, 4, seed=301), criterion,
                              max_splits, n_trees, seed=max_splits)

    @pytest.fixture(scope="class")
    def default_panel(self):
        return generate_panel(GeneratorConfig())

    @pytest.mark.parametrize("selection", list(FeatureSelection))
    def test_one_fold_of_every_selection(self, default_panel, selection):
        dataset = build_dataset(default_panel, selection)
        plan = evaluation.stratified_folds(dataset, 10, seed=0)
        train = dataset.subset(plan.training_rows(0))
        for label, criterion in [("DT-Gini", SplitCriterion.GINI),
                                 ("DT-Entropy", SplitCriterion.ENTROPY),
                                 ("DT-Twoing", SplitCriterion.TWOING)]:
            got = evaluation.make_classifier_spec(label).fit(train, seed=3)
            assert got.nodes == ref.fit_tree(train, criterion=criterion).nodes
        # the committee's reference is built tree by tree, each alone on
        # its own bootstrap draw of the fold
        bag = evaluation.make_classifier_spec("BaggedTree").fit(train, seed=3)
        assert len(bag.trees) == trees.DEFAULT_BAG_SIZE
        for t, tree in enumerate(bag.trees):
            draw = train.subset(bootstrap_rows(train.n, 3, t))
            assert tree.nodes == ref.fit_tree(draw).nodes
