"""The SVM and NN inner loops against their straightforward versions.

`loop_reference` rebuilds every vector on every iteration; the loops in
`cdsproxy` update only what changes. Swapped in, the reference must give
the same fitted models bit for bit.
"""
import numpy as np
import pytest

import loop_reference as ref
from conftest import make_blobs, random_dataset
from cdsproxy import neuralnet, svm
from cdsproxy.errors import NoConvergence
from cdsproxy.neuralnet import Activation, TrainConfig, fit_neural_net
from cdsproxy.svm import DEFAULT_COST, DEFAULT_KKT_TOL, KernelSpec, SvmKernel


def overlapping_problem(seed, n_per_side=40, d=3):
    """Two overlapping Gaussian classes: many updates, many free vectors."""
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(size=(n_per_side, d)) - 0.3,
                   rng.normal(size=(n_per_side, d)) + 0.3])
    y = np.concatenate([np.ones(n_per_side), -np.ones(n_per_side)])
    order = rng.permutation(y.size)
    return x[order], y[order]


def run_both(ascent_args, alpha):
    """Both loops from copies of one alpha: (result or error) per loop."""
    outcomes = []
    for loop in (svm._pairwise_ascent, ref.pairwise_ascent):
        start = alpha.copy()
        try:
            outcomes.append(loop(*ascent_args, start, 0))
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
        args = (x, y, spec, DEFAULT_COST, DEFAULT_KKT_TOL, 100_000, gram,
                svm._label_product(y, gram))
        got, want = run_both(args, np.zeros(y.size))
        assert got.n_updates > 50
        assert_same_machine(got, want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_interior_point_start_matches_reference(self, kind):
        x, y = overlapping_problem(3)
        spec = KernelSpec(kind).resolve(x.shape[1])
        gram = spec.gram(x, x)
        q = svm._label_product(y, gram)
        alpha, _ = svm._interior_point(q, y, DEFAULT_COST)
        # a tolerance below the interior point's leaves polishing to do
        args = (x, y, spec, DEFAULT_COST, 1e-9, 100_000, gram, q)
        got, want = run_both(args, alpha)
        assert got.n_updates > 0
        assert_same_machine(got, want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_capped_attempt_raises_at_the_same_update(self, kind):
        x, y = overlapping_problem(4)
        spec = KernelSpec(kind).resolve(x.shape[1])
        gram = spec.gram(x, x)
        args = (x, y, spec, DEFAULT_COST, DEFAULT_KKT_TOL, 37, gram,
                svm._label_product(y, gram))
        (got_msg, got_alpha), (want_msg, want_alpha) = run_both(
            args, np.zeros(y.size))
        assert got_msg == want_msg
        assert "after 37 pair updates" in got_msg
        assert np.array_equal(got_alpha, want_alpha)

    def test_multiclass_fit_with_fallback_machines_matches_reference(
            self, monkeypatch):
        # machine 0 goes over its budget and onto the interior point
        train = random_dataset(60, 2, 2, seed=0)
        spec = KernelSpec(SvmKernel.LINEAR)
        got = svm.fit_svm_multiclass(train, kernel=spec)
        monkeypatch.setattr(svm, "_pairwise_ascent", ref.pairwise_ascent)
        want = svm.fit_svm_multiclass(train, kernel=spec)
        assert got.machines[0].ip_iterations > 0
        for a, b in zip(got.machines, want.machines):
            assert_same_machine(a, b)
            assert a.ip_iterations == b.ip_iterations


class TestNetworkTraining:
    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("n_classes", [2, 3, 5, 8, 12, 20])
    def test_training_matches_reference(self, monkeypatch, n_classes,
                                        activation):
        train = random_dataset(6 * n_classes, 4, n_classes, seed=n_classes)
        config = TrainConfig(epochs=60, seed=n_classes)
        got = fit_neural_net(train, activation=activation, config=config)
        monkeypatch.setattr(neuralnet, "_forward_state", ref.forward_state)
        monkeypatch.setattr(neuralnet, "_gradient_from_state",
                            ref.gradient_from_state)
        want = fit_neural_net(train, activation=activation, config=config)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(got.params, name),
                                  getattr(want.params, name))
        assert got.loss_history == want.loss_history
        assert got.epochs_run == want.epochs_run > 10
        assert got.final_grad_norm == want.final_grad_norm

    @pytest.mark.parametrize("activation", list(Activation))
    def test_early_stop_matches_reference(self, monkeypatch, activation):
        # blobs this far apart drive the loss and gradient towards 0, so the
        # run ends on the gradient tolerance or on the step floor
        train = make_blobs([[-6.0, 0.0], [6.0, 0.0], [0.0, 6.0]], 5,
                           scale=0.1, seed=5)
        config = TrainConfig(epochs=3000, seed=5, grad_tol=1e-3)
        got = fit_neural_net(train, activation=activation, config=config)
        monkeypatch.setattr(neuralnet, "_forward_state", ref.forward_state)
        monkeypatch.setattr(neuralnet, "_gradient_from_state",
                            ref.gradient_from_state)
        want = fit_neural_net(train, activation=activation, config=config)
        assert got.epochs_run == want.epochs_run < 3000
        assert got.loss_history == want.loss_history
        assert got.final_grad_norm == want.final_grad_norm
        assert got.warning == want.warning
        assert np.array_equal(got.params.w1, want.params.w1)
