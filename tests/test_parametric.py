import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blobs, random_dataset
from cdsproxy import logistic, neuralnet
from cdsproxy.core import ALL_SELECTIONS, Dataset, build_dataset
from cdsproxy.datagen import GeneratorConfig, generate_panel
from cdsproxy.errors import (
    BadConfig,
    DimensionMismatch,
    EmptyClass,
    NoConvergence,
)
from cdsproxy.evaluation import fold_seed, make_classifier_spec, stratified_folds
from cdsproxy.logistic import (
    DEFAULT_MAX_ITER,
    DEFAULT_RIDGE,
    LogisticClassifier,
    fit_logistic_binary,
    fit_logistic_multiclass,
    sigmoid,
)
from cdsproxy.neuralnet import (
    Activation,
    DEFAULT_EPOCHS,
    DEFAULT_GRAD_TOL,
    DEFAULT_HIDDEN_UNITS,
    NetParams,
    NeuralNetClassifier,
    TrainConfig,
    WEIGHT_PENALTY,
    fit_neural_net,
    initial_params,
)
from cdsproxy.numerics import Standardizer


# ---------------------------------------------------------------- logistic


def penalized_ll(z, t, beta, ridge):
    p = sigmoid(z @ beta)
    eps = 1e-300
    ll = np.sum(t * np.log(p + eps) + (1 - t) * np.log(1 - p + eps))
    return ll - ridge * beta[1:] @ beta[1:]


def gradient_ascent_oracle(z, t, ridge, steps=200_000, rate=0.05):
    """Plain fixed-step ascent on the penalised log-likelihood."""
    beta = np.zeros(z.shape[1])
    mask = np.ones(z.shape[1])
    mask[0] = 0.0
    rate = rate / z.shape[0]
    for _ in range(steps):
        p = sigmoid(z @ beta)
        grad = z.T @ (t - p) - 2.0 * ridge * mask * beta
        beta = beta + rate * grad
        if np.sqrt(grad @ grad) < 1e-10:
            break
    return beta


class TestSigmoid:
    def test_fixed_points(self):
        assert sigmoid(np.array(0.0)) == 0.5
        assert sigmoid(np.array(40.0)) == pytest.approx(1.0, abs=1e-12)
        assert sigmoid(np.array(-40.0)) == pytest.approx(0.0, abs=1e-12)

    def test_antisymmetry(self):
        assert float(sigmoid(np.array(2.0)) + sigmoid(np.array(-2.0))) == (
            pytest.approx(1.0, abs=1e-15))

    def test_monotone(self):
        v = np.linspace(-20, 20, 301)
        assert np.all(np.diff(sigmoid(v)) > 0)


class TestBinaryLogistic:
    def test_matches_gradient_ascent_oracle(self):
        rng = np.random.default_rng(17)
        x = np.vstack([rng.normal(size=(20, 2)) - 0.8,
                       rng.normal(size=(20, 2)) + 0.8])
        t = np.repeat([0.0, 1.0], 20)
        z = np.column_stack([np.ones(40), x])
        beta, _ = fit_logistic_binary(z, t)
        want = gradient_ascent_oracle(z, t, DEFAULT_RIDGE)
        assert np.max(np.abs(beta - want)) <= 1e-4

    def test_newton_exit_gradient_is_tiny(self, monkeypatch):
        monkeypatch.setattr(logistic, "DEFAULT_GRAD_TOL", 1e-8)
        rng = np.random.default_rng(18)
        x = np.vstack([rng.normal(size=(15, 3)) - 0.5,
                       rng.normal(size=(15, 3)) + 0.5])
        t = np.repeat([0.0, 1.0], 15)
        z = np.column_stack([np.ones(30), x])
        beta, _ = fit_logistic_binary(z, t)
        p = sigmoid(z @ beta)
        mask = np.ones(4)
        mask[0] = 0.0
        grad = z.T @ (t - p) - 2.0 * DEFAULT_RIDGE * mask * beta
        assert np.sqrt(grad @ grad) <= 1e-8

    def test_symmetric_design_zero_intercept(self):
        z = np.column_stack([np.ones(20), np.tile([-1.0, 1.0], 10)])
        t = np.tile([0.0, 1.0], 10)
        beta, _ = fit_logistic_binary(z, t)
        assert abs(beta[0]) <= 1e-6

    def test_separable_classes_reach_the_penalised_optimum(self):
        # the unpenalised likelihood of separated classes has no maximiser;
        # the fixed ridge gives the fit a finite one
        z = np.column_stack([np.ones(8), np.repeat([-2.0, 2.0], 4)])
        t = np.repeat([0.0, 1.0], 4)
        beta, count = fit_logistic_binary(z, t)
        assert np.all(np.isfinite(beta)) and 1 <= count < DEFAULT_MAX_ITER
        assert np.all((sigmoid(z @ beta) > 0.5) == (t > 0.5))
        grad = z.T @ (t - sigmoid(z @ beta)) - 2.0 * DEFAULT_RIDGE * np.array(
            [0.0, beta[1]])
        assert np.sqrt(grad @ grad) <= 1e-6

    def test_update_cap_message_counts_the_newton_updates(self, monkeypatch):
        monkeypatch.setattr(logistic, "DEFAULT_MAX_ITER", 1)
        z = np.column_stack([np.ones(8), np.repeat([-2.0, 2.0], 4)])
        t = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        with pytest.raises(NoConvergence, match=r"> 1e-06 after 1 Newton updates$"):
            fit_logistic_binary(z, t)

    def test_halving_stop_names_its_newton_iteration(self, monkeypatch):
        # with no halvings allowed the first Newton step is never tried, so
        # the fit stops at iteration 1 of its 100, and must say so
        monkeypatch.setattr(logistic, "_MAX_HALVINGS", 0)
        z = np.column_stack([np.ones(8), np.repeat([-2.0, 2.0], 4)])
        t = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        with pytest.raises(NoConvergence) as info:
            fit_logistic_binary(z, t)
        message = str(info.value)
        assert "at Newton iteration 1," in message
        assert "raised the log-likelihood" in message
        assert "after 100" not in message

    def test_returns_the_number_of_newton_updates(self, monkeypatch):
        rng = np.random.default_rng(19)
        x = np.vstack([rng.normal(size=(20, 2)) - 0.8,
                       rng.normal(size=(20, 2)) + 0.8])
        z = np.column_stack([np.ones(40), x])
        t = np.repeat([0.0, 1.0], 20)
        beta, count = fit_logistic_binary(z, t)
        assert 1 <= count <= DEFAULT_MAX_ITER
        monkeypatch.setattr(logistic, "DEFAULT_MAX_ITER", count)
        again, same = fit_logistic_binary(z, t)
        assert same == count and np.array_equal(again, beta)
        monkeypatch.setattr(logistic, "DEFAULT_MAX_ITER", count - 1)
        with pytest.raises(NoConvergence,
                           match=rf"after {count - 1} Newton updates$"):
            fit_logistic_binary(z, t)

    def test_penalty_shrinks_coefficients(self, monkeypatch):
        z = np.column_stack([np.ones(8), np.repeat([-2.0, 2.0], 4)])
        t = np.repeat([0.0, 1.0], 4)
        monkeypatch.setattr(logistic, "DEFAULT_RIDGE", 1e-3)
        small, _ = fit_logistic_binary(z, t)
        monkeypatch.setattr(logistic, "DEFAULT_RIDGE", 1.0)
        large, _ = fit_logistic_binary(z, t)
        assert abs(large[1]) < abs(small[1])


# Fits the training rows of folds 4 and 5 of a 20-name x 250-day FS1 panel.
# With one BLAS thread, two of their machines used to stall: the full Newton
# step was lost to rounding, with gradient norms stuck at 1.09e-6 and
# 2.85e-6, just above the tolerance.
_DECREMENT_STALL_SCRIPT = """
from cdsproxy import core, datagen
from cdsproxy.evaluation import stratified_folds
from cdsproxy.logistic import fit_logistic_multiclass
panel = datagen.generate_panel(
    datagen.GeneratorConfig(n_counterparties=20, n_days=250, seed=1))
ds = core.build_dataset(panel, core.FeatureSelection.FS1)
plan = stratified_folds(ds, 10, seed=1)
for fold in (4, 5):
    fit_logistic_multiclass(ds.subset(plan.training_rows(fold)))
"""


class TestMulticlassLogistic:
    def test_rounding_stall_ends_at_the_newton_decrement(self):
        # BLAS reads its thread count when numpy loads, hence the subprocess
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _DECREMENT_STALL_SCRIPT],
                             env=env, capture_output=True, text=True,
                             timeout=300)
        assert run.returncode == 0, run.stderr[-2000:]


    def test_two_class_reduction_is_half_threshold(self):
        train = make_blobs([[0.0, 0.0], [2.0, 1.0]], 15, scale=0.9, seed=19)
        model = fit_logistic_multiclass(train)
        queries = np.random.default_rng(20).normal(size=(40, 2)) * 2 + 1
        probs = model.scores_batch(queries)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        want = np.where(probs[:, 0] >= 0.5, 0, 1)
        assert np.array_equal(model.classify_batch(queries), want)

    def test_three_blobs_training_accuracy(self):
        train = make_blobs([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]], 20,
                           scale=0.5, seed=21)
        model = fit_logistic_multiclass(train)
        assert np.all(model.classify_batch(train.x) == train.y)

    def test_standardization_makes_feature_scaling_irrelevant(self):
        train = make_blobs([[0.0, 0.0], [2.0, 1.0], [0.0, 2.5]], 12,
                           scale=0.7, seed=24)
        factors = np.array([1000.0, 0.01])
        scaled = Dataset(x=train.x * factors, y=train.y,
                         class_names=train.class_names,
                         feature_names=train.feature_names)
        a = fit_logistic_multiclass(train)
        b = fit_logistic_multiclass(scaled)
        queries = np.random.default_rng(25).normal(size=(40, 2)) * 1.5 + 1.0
        assert np.allclose(a.scores_batch(queries),
                           b.scores_batch(queries * factors), atol=1e-9)
        assert np.array_equal(a.classify_batch(queries),
                              b.classify_batch(queries * factors))

    def test_single_point_per_class_memorized(self):
        train = Dataset(x=np.array([[0.0], [1.0], [2.0]]), y=np.array([0, 1, 2]),
                        class_names=("a", "b", "c"), feature_names=("f",))
        model = fit_logistic_multiclass(train)
        assert np.array_equal(model.classify_batch(train.x), [0, 1, 2])

    def test_scores_are_probabilities(self):
        train = make_blobs([[0.0], [3.0], [6.0]], 10, scale=0.7, seed=22)
        model = fit_logistic_multiclass(train)
        # queries stay near the data so the sigmoids do not saturate in float
        probs = model.scores_batch(np.linspace(0.5, 5.5, 30)[:, None])
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_argmax_invariant_under_monotone_transform(self):
        train = make_blobs([[0.0], [3.0], [6.0]], 10, scale=0.7, seed=23)
        model = fit_logistic_multiclass(train)
        probs = model.scores_batch(np.linspace(-2, 8, 30)[:, None])
        logit = np.log(probs / (1 - probs))
        assert np.array_equal(np.argmax(probs, axis=1), np.argmax(logit, axis=1))

    def test_single_class_rejected(self):
        train = Dataset(x=np.zeros((4, 1)), y=np.zeros(4, dtype=int),
                        class_names=("only",), feature_names=("f",))
        with pytest.raises(EmptyClass, match="training data holds a single class"):
            fit_logistic_multiclass(train)

    def test_describe_and_shapes(self):
        train = make_blobs([[0.0], [3.0]], 8, scale=0.5, seed=24)
        model = fit_logistic_multiclass(train)
        assert isinstance(model, LogisticClassifier)
        assert model.coefficients.shape == (2, 2)
        assert model.describe() == {"ridge": DEFAULT_RIDGE,
                                    "newton_iterations": model.newton_iterations}

    def test_describe_reports_each_machines_newton_updates(self):
        panel = generate_panel(GeneratorConfig(n_counterparties=3, n_days=30,
                                               seed=0))
        for selection in ALL_SELECTIONS:
            train = build_dataset(panel, selection)
            counts = fit_logistic_multiclass(train).describe()["newton_iterations"]
            assert len(counts) == train.n_classes
            assert all(1 <= c <= DEFAULT_MAX_ITER for c in counts)


# ------------------------------------------------------------------ network


def softmax_rows(logits):
    z = np.asarray(logits, dtype=float)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def net_model(params, activation):
    """A network model with the given weights and an identity standardiser."""
    d, k = params.w1.shape[1], params.b2.size
    return NeuralNetClassifier(
        params=params, activation=activation, hidden_units=params.b1.size,
        n_classes=k, class_names=tuple(f"c{j}" for j in range(k)),
        config=TrainConfig(),
        standardizer=Standardizer(means=np.zeros(d), scales=np.ones(d)))


def identity_net(k):
    """A linear network whose logits are its query rows, so that its scores
    are the softmax of those rows."""
    eye = np.eye(k)
    return net_model(NetParams(eye, np.zeros(k), eye, np.zeros(k)),
                     Activation.LINEAR)


class TestSoftmax:
    def test_uniform(self):
        got = identity_net(4).scores_batch(np.zeros((1, 4)))
        assert np.allclose(got, 0.25, atol=1e-15)

    def test_exact_ratios(self):
        got = identity_net(3).scores_batch(
            np.array([[0.0, math.log(2.0), math.log(3.0)]]))
        assert np.allclose(got, [[1 / 6, 1 / 3, 1 / 2]], atol=1e-15)

    def test_shift_invariance_and_sum(self):
        v = np.random.default_rng(30).normal(size=(20, 5)) * 10
        model = identity_net(5)
        a, b = model.scores_batch(v), model.scores_batch(v + 7.3)
        assert np.max(np.abs(a - b)) <= 1e-12
        assert np.max(np.abs(a.sum(axis=1) - 1.0)) <= 1e-12

    def test_extreme_logits_stable(self):
        got = identity_net(3).scores_batch(np.array([[1000.0, 0.0, -1000.0],
                                                     [-1000.0, -1000.0, 1000.0]]))
        assert np.isfinite(got).all()
        assert got[0, 0] == pytest.approx(1.0) and got[1, 2] == pytest.approx(1.0)


def manual_forward(params, activation, x):
    h = len(params.b1)
    k = len(params.b2)
    hidden = []
    for r in range(h):
        pre = params.b1[r] + sum(params.w1[r, c] * x[c] for c in range(len(x)))
        if activation is Activation.TAN_SIGMOID:
            hidden.append(math.tanh(pre))
        elif activation is Activation.LINEAR:
            hidden.append(pre)
        else:
            hidden.append(pre / (1.0 + abs(pre)))
    logits = [params.b2[j] + sum(params.w2[j, r] * hidden[r] for r in range(h))
              for j in range(k)]
    mx = max(logits)
    exps = [math.exp(v - mx) for v in logits]
    total = sum(exps)
    return np.array([e / total for e in exps])


class TestForward:
    def test_zero_network_is_uniform(self):
        params = NetParams(np.zeros((3, 2)), np.zeros(3), np.zeros((4, 3)), np.zeros(4))
        got = net_model(params, Activation.TAN_SIGMOID).scores_batch(
            np.array([[1.5, -2.0]]))
        assert np.array_equal(got[0], np.full(4, 0.25))

    def test_linear_collapse_to_multinomial_logit(self):
        rng = np.random.default_rng(31)
        d = 3
        w2 = rng.normal(size=(4, d))
        b2 = rng.normal(size=4)
        params = NetParams(np.eye(d), np.zeros(d), w2, b2)
        x = rng.normal(size=(6, d))
        got = net_model(params, Activation.LINEAR).scores_batch(x)
        want = softmax_rows(x @ w2.T + b2)
        assert np.allclose(got, want, atol=1e-14)

    @pytest.mark.parametrize("activation", list(Activation))
    def test_matches_layerwise_recomputation(self, activation):
        model = net_model(initial_params(d=4, h=5, k=3, seed=32), activation)
        rng = np.random.default_rng(33)
        for _ in range(10):
            x = rng.normal(size=4)
            got = model.scores_batch(x[None])[0]
            want = manual_forward(model.params, activation, x)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_dimension_mismatch(self):
        model = net_model(initial_params(d=4, h=5, k=3, seed=34), Activation.LINEAR)
        with pytest.raises(DimensionMismatch):
            model.scores_batch(np.ones((1, 3)))


def flatten_params(p):
    return np.concatenate([p.w1.ravel(), p.b1, p.w2.ravel(), p.b2])


def unflatten_like(vec, p):
    w1 = vec[:p.w1.size].reshape(p.w1.shape)
    rest = vec[p.w1.size:]
    b1 = rest[:p.b1.size]
    rest = rest[p.b1.size:]
    w2 = rest[:p.w2.size].reshape(p.w2.shape)
    b2 = rest[p.w2.size:]
    return NetParams(w1.copy(), b1.copy(), w2.copy(), b2.copy())


def loss_oracle(params, activation, x, y):
    """Mean cross-entropy of the true classes, by log-sum-exp."""
    pre = x @ params.w1.T + params.b1
    if activation is Activation.TAN_SIGMOID:
        hidden = np.tanh(pre)
    elif activation is Activation.LINEAR:
        hidden = pre
    else:
        hidden = pre / (1.0 + np.abs(pre))
    logits = hidden @ params.w2.T + params.b2
    top = logits.max(axis=1)
    log_norm = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    return float((log_norm - logits[np.arange(len(y)), y]).mean())


def loss_and_gradient(params, activation, x, y):
    """The trainer's loss and gradient, from its forward-pass state over
    the rows of x as columns."""
    picks = neuralnet._true_class_picks(y)
    state = neuralnet._forward_state(params, activation, x.T, picks)
    return state[0], neuralnet._gradient_from_state(params, activation, x.T,
                                                    picks, state)


def penalised_oracle(params, activation, x, y):
    """Mean cross-entropy plus (WEIGHT_PENALTY / 2) |W1|^2 + |W2|^2."""
    weights = float((params.w1 ** 2).sum() + (params.w2 ** 2).sum())
    return loss_oracle(params, activation, x, y) + 0.5 * WEIGHT_PENALTY * weights


def central_difference(params, activation, x, y, step=1e-5, oracle=loss_oracle):
    theta = flatten_params(params)
    grad = np.empty_like(theta)
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (oracle(unflatten_like(up, params), activation, x, y)
                   - oracle(unflatten_like(down, params), activation, x, y)
                   ) / (2 * step)
    return grad


def objective_and_gradient(params, activation, x, y):
    """The trainer's penalised objective and its flat gradient."""
    picks = neuralnet._true_class_picks(y)
    shape = (params.w1.shape[1], params.b1.size, params.b2.size)
    data = (activation, x.T, picks)
    value, at, state = neuralnet._objective(params.flat.copy(), shape, *data)
    return value, NetParams.of_flat(
        neuralnet._objective_gradient(at, state, *data), *shape)


class TestGradient:
    def test_zero_net_output_bias_gradient(self):
        params = NetParams(np.zeros((2, 2)), np.zeros(2), np.zeros((3, 2)),
                           np.zeros(3))
        _, grad = loss_and_gradient(params, Activation.TAN_SIGMOID,
                                    np.array([[1.0, 2.0]]), np.array([1]))
        want = np.full(3, 1 / 3)
        want[1] -= 1.0
        assert np.allclose(grad.b2, want, atol=1e-15)
        assert np.allclose(grad.w1, 0.0)      # tanh'(0)=1 but output delta @ w2 = 0

    def test_duplicated_batch_same_gradient(self):
        params = initial_params(d=3, h=4, k=3, seed=35)
        rng = np.random.default_rng(36)
        x = rng.normal(size=(5, 3))
        y = np.array([0, 2, 1, 1, 0])
        _, g1 = loss_and_gradient(params, Activation.ELLIOT_SIGMOID, x, y)
        _, g2 = loss_and_gradient(params, Activation.ELLIOT_SIGMOID,
                                  np.vstack([x, x]), np.concatenate([y, y]))
        for a, b in zip((g1.w1, g1.b1, g1.w2, g1.b2), (g2.w1, g2.b1, g2.w2, g2.b2)):
            assert np.allclose(a, b, atol=1e-14)

    @pytest.mark.parametrize("activation", list(Activation))
    def test_matches_central_differences(self, activation):
        rng = np.random.default_rng(37)
        for trial in range(10):
            params = initial_params(d=2, h=3, k=3, seed=100 + trial)
            x = rng.normal(size=(6, 2))
            y = rng.integers(0, 3, size=6)
            _, grad = loss_and_gradient(params, activation, x, y)
            ana = flatten_params(grad)
            num = central_difference(params, activation, x, y)
            rel = np.abs(ana - num) / np.maximum(1.0, np.abs(ana))
            assert rel.max() <= 1e-5

    @pytest.mark.parametrize("activation", list(Activation))
    def test_penalised_gradient_matches_central_differences(self, activation):
        rng = np.random.default_rng(47)
        for trial in range(10):
            params = initial_params(d=2, h=3, k=3, seed=200 + trial)
            x = rng.normal(size=(6, 2))
            y = rng.integers(0, 3, size=6)
            value, grad = objective_and_gradient(params, activation, x, y)
            assert value == pytest.approx(
                penalised_oracle(params, activation, x, y), rel=1e-12)
            num = central_difference(params, activation, x, y,
                                     oracle=penalised_oracle)
            ana = flatten_params(grad)
            rel = np.abs(ana - num) / np.maximum(1.0, np.abs(ana))
            assert rel.max() <= 1e-5
            # the penalty adds WEIGHT_PENALTY * w to the weights' gradient
            # and nothing to the biases'
            _, plain = loss_and_gradient(params, activation, x, y)
            assert np.array_equal(grad.b1, plain.b1)
            assert np.array_equal(grad.b2, plain.b2)
            for got, base, w in ((grad.w1, plain.w1, params.w1),
                                 (grad.w2, plain.w2, params.w2)):
                assert np.allclose(got - base, WEIGHT_PENALTY * w,
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("activation", list(Activation))
    def test_loss_matches_oracle(self, activation):
        params = initial_params(d=2, h=3, k=2, seed=38)
        x = np.random.default_rng(39).normal(size=(7, 2))
        y = np.array([0, 1, 1, 0, 1, 0, 0])
        loss, _ = loss_and_gradient(params, activation, x, y)
        assert loss == pytest.approx(loss_oracle(params, activation, x, y),
                                     rel=1e-12)


def multinomial_logit_oracle(x, y, k):
    """Newton fit of the softmax-regression loss with the last class pinned."""
    n, d = x.shape
    z = np.column_stack([np.ones(n), x])
    m = d + 1
    theta = np.zeros((k - 1) * m)
    onehot = np.eye(k)[y][:, :-1]
    for _ in range(60):
        logits = np.column_stack([z @ theta.reshape(k - 1, m).T, np.zeros(n)])
        p = softmax_rows(logits)
        grad = (z.T @ (p[:, :-1] - onehot)).T.ravel() / n
        if np.sqrt(grad @ grad) < 1e-12:
            break
        hess = np.zeros(((k - 1) * m, (k - 1) * m))
        for a in range(k - 1):
            for b in range(k - 1):
                w = p[:, a] * ((a == b) - p[:, b])
                hess[a * m:(a + 1) * m, b * m:(b + 1) * m] = (
                    (z * w[:, None]).T @ z / n)
        theta = theta - np.linalg.solve(hess + 1e-10 * np.eye(len(theta)), grad)
    logits = np.column_stack([z @ theta.reshape(k - 1, m).T, np.zeros(n)])
    p = softmax_rows(logits)
    loss = float(-np.log(p[np.arange(n), y]).mean())
    coef = theta.reshape(k - 1, m)
    return coef, loss


class TestTraining:
    def test_separable_two_class(self):
        train = make_blobs([[-3.0], [3.0]], 10, scale=0.4, seed=40)
        model = fit_neural_net(train, hidden_units=2,
                               activation=Activation.TAN_SIGMOID)
        assert np.all(model.classify_batch(train.x) == train.y)

    @pytest.mark.parametrize("activation", list(Activation))
    def test_three_blobs_high_accuracy(self, activation):
        train = make_blobs([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], 15,
                           scale=0.5, seed=41)
        model = fit_neural_net(train, activation=activation)
        acc = float(np.mean(model.classify_batch(train.x) == train.y))
        assert acc >= 0.99
        assert model.hidden_units == DEFAULT_HIDDEN_UNITS == 10

    def test_deterministic_per_seed(self, monkeypatch):
        monkeypatch.setattr(neuralnet, "DEFAULT_EPOCHS", 50)
        train = make_blobs([[0.0, 0.0], [2.0, 2.0]], 10, scale=0.8, seed=42)
        a = fit_neural_net(train, seed=7)
        b = fit_neural_net(train, seed=7)
        assert np.array_equal(a.params.w1, b.params.w1)
        assert np.array_equal(a.params.w2, b.params.w2)
        assert a.loss_history == b.loss_history
        c = fit_neural_net(train, seed=8)
        assert not np.array_equal(a.params.w1, c.params.w1)

    def test_standardization_makes_feature_scaling_irrelevant(self, monkeypatch):
        train = make_blobs([[0.0, 0.0], [2.0, 1.0], [0.0, 2.5]], 12,
                           scale=0.7, seed=43)
        factors = np.array([1000.0, 0.01])
        scaled = Dataset(x=train.x * factors, y=train.y,
                         class_names=train.class_names,
                         feature_names=train.feature_names)
        # the two standardised training sets differ by rounding, so each
        # fit takes its own path to the same optimum and stops within the
        # gradient tolerance of it (here at 1e-8, 9.4e-7 apart in score)
        monkeypatch.setattr(neuralnet, "DEFAULT_GRAD_TOL", 1e-8)
        a = fit_neural_net(train, seed=8)
        b = fit_neural_net(scaled, seed=8)
        assert a.warning is None and b.warning is None
        queries = np.random.default_rng(44).normal(size=(40, 2)) * 1.5 + 1.0
        assert np.allclose(a.scores_batch(queries),
                           b.scores_batch(queries * factors), atol=1e-5)
        assert np.array_equal(a.classify_batch(queries),
                              b.classify_batch(queries * factors))

    @pytest.mark.parametrize("activation", list(Activation))
    def test_loss_history_non_increasing(self, activation):
        train = make_blobs([[0.0, 0.0], [1.5, 0.5], [0.5, 1.5]], 12,
                           scale=0.7, seed=43)
        model = fit_neural_net(train, activation=activation,
                               seed=1)
        history = np.array(model.loss_history)
        assert history.size == model.epochs_run + 1
        # the Armijo condition keeps every accepted step from raising it
        assert np.all(np.diff(history) <= 0.0)
        z = model.standardizer.apply(train.x)
        start = initial_params(train.d, DEFAULT_HIDDEN_UNITS, 3, seed=1)
        assert history[0] == pytest.approx(
            penalised_oracle(start, activation, z, train.y), rel=1e-12)
        assert history[-1] == pytest.approx(
            penalised_oracle(model.params, activation, z, train.y), rel=1e-12)

    def test_gradient_tolerance_stop(self):
        x = np.array([[0.0], [0.0]])
        train = Dataset(x=x, y=np.array([0, 1]), class_names=("a", "b"),
                        feature_names=("f",))
        model = fit_neural_net(train, hidden_units=2,
                               seed=2)
        assert model.epochs_run < DEFAULT_EPOCHS
        assert model.final_grad_norm <= 1e-6
        assert model.warning is None

    def test_capacity_nesting_linear_activation(self):
        train = make_blobs([[0.0, 0.0], [1.6, 0.0], [0.0, 1.6]], 20,
                           scale=1.0, seed=45)
        d, k = 2, 3
        h = max(d, k)
        model = fit_neural_net(train, hidden_units=h,
                               activation=Activation.LINEAR,
                               seed=4)
        # the network trains on standardised rows, so the oracle does too
        z = model.standardizer.apply(train.x)
        coef, opt_loss = multinomial_logit_oracle(z, train.y, k)
        w1 = np.zeros((h, d))
        w1[:d, :d] = np.eye(d)
        w2 = np.zeros((k, h))
        w2[:-1, :d] = coef[:, 1:]
        b2 = np.concatenate([coef[:, 0], [0.0]])
        embedded = NetParams(w1, np.zeros(h), w2, b2)
        emb_loss, _ = loss_and_gradient(embedded, Activation.LINEAR, z, train.y)
        assert emb_loss == pytest.approx(opt_loss, abs=1e-12)
        # the fit minimises the penalised objective, whose cross-entropy
        # part cannot fall below the multinomial logit's optimum
        trained_loss, _ = loss_and_gradient(model.params, Activation.LINEAR,
                                            z, train.y)
        assert trained_loss >= opt_loss - 1e-9
        assert trained_loss <= model.loss_history[-1] <= opt_loss + 0.02

    def test_describe_reports_the_convergence_diagnostics(self):
        train = make_blobs([[0.0, 0.0], [2.0, 2.0]], 10, scale=0.8, seed=42)
        model = fit_neural_net(train, seed=7)
        assert 0 < model.epochs_run < DEFAULT_EPOCHS
        assert model.describe() == {
            "activation": "tan-sigmoid",
            "hidden_units": DEFAULT_HIDDEN_UNITS,
            "epochs_run": model.epochs_run,
            "final_grad_norm": model.final_grad_norm, "warning": None}
        assert 0.0 < model.final_grad_norm <= DEFAULT_GRAD_TOL

    @pytest.mark.parametrize("label", ["NN-Tangent", "NN-Linear", "NN-Elliot"])
    def test_every_golden_fold_fit_converges_and_repeats(self, label):
        # the NN fold fits of tests/test_golden.py: FS1-FS6 of the 3-name x
        # 30-day panel, two folds, cv seed 0
        spec = make_classifier_spec(label)
        panel = generate_panel(GeneratorConfig(n_counterparties=3, n_days=30,
                                               seed=0))
        for selection in ALL_SELECTIONS:
            dataset = build_dataset(panel, selection)
            plan = stratified_folds(dataset, 2, seed=0)
            for fold in range(plan.k):
                train = dataset.subset(plan.training_rows(fold))
                model = spec.fit(train, fold_seed(0, fold))
                assert model.final_grad_norm <= DEFAULT_GRAD_TOL
                assert model.warning is None
                assert 0 < model.epochs_run < DEFAULT_EPOCHS
                again = spec.fit(train, fold_seed(0, fold))
                assert np.array_equal(again.params.flat, model.params.flat)
                assert again.loss_history == model.loss_history
                assert again.final_grad_norm == model.final_grad_norm

    def test_fit_at_the_iteration_cap_keeps_a_warning(self, monkeypatch):
        monkeypatch.setattr(neuralnet, "DEFAULT_EPOCHS", 20)
        train = make_blobs([[0.0, 0.0], [2.0, 2.0]], 10, scale=0.8, seed=42)
        model = fit_neural_net(train, seed=7)
        summary = model.describe()
        assert summary["epochs_run"] == 20
        assert summary["final_grad_norm"] > DEFAULT_GRAD_TOL
        assert "iteration cap 20" in summary["warning"]

    def test_fit_whose_line_search_stalls_keeps_a_warning(self, monkeypatch):
        # no step lowers the objective in floating point long before a zero
        # gradient norm, the tolerance here, is met
        monkeypatch.setattr(neuralnet, "DEFAULT_GRAD_TOL", 0.0)
        train = make_blobs([[-2.0], [2.0]], 6, scale=0.3, seed=44)
        model = fit_neural_net(train, seed=3)
        assert model.epochs_run < DEFAULT_EPOCHS
        assert "line search cannot lower" in model.describe()["warning"]
        assert np.all(np.diff(np.array(model.loss_history)) <= 0.0)
        assert model.scores_batch(np.array([[0.0]]))[0].shape == (2,)

    def test_config_validation(self):
        # the seed is the one setting of a fit; the iteration cap and the
        # tolerance are the module constants
        assert [f.name for f in dataclasses.fields(TrainConfig)] == ["seed"]
        train = make_blobs([[0.0], [1.0]], 4, scale=0.2, seed=46)
        with pytest.raises(BadConfig):
            fit_neural_net(train, hidden_units=0)

    def test_single_class_rejected(self):
        train = Dataset(x=np.zeros((3, 1)), y=np.zeros(3, dtype=int),
                        class_names=("only",), feature_names=("f",))
        with pytest.raises(EmptyClass, match="training data holds a single class"):
            fit_neural_net(train)


def golden_linear_folds():
    """(train, holdout rows' x, fold seed) of the NN-Linear fold fits of
    tests/test_golden.py, FS1-FS6 of the 3-name x 30-day panel, two folds
    at cv seed 0, and of GeneratorConfig() FS2 fold 8 at cv seed 0, whose
    fit took the most iterations of the full grid at LBFGS_MEMORY."""
    cases = [(GeneratorConfig(n_counterparties=3, n_days=30, seed=0), 2,
              ALL_SELECTIONS, (0, 1)),
             (GeneratorConfig(), 10, ALL_SELECTIONS[1:2], (8,))]
    for config, k, selections, folds in cases:
        panel = generate_panel(config)
        for selection in selections:
            dataset = build_dataset(panel, selection)
            plan = stratified_folds(dataset, k, seed=0)
            for fold in folds:
                yield (dataset.subset(plan.training_rows(fold)),
                       dataset.x[plan.holdout_rows(fold)], fold_seed(0, fold))


class TestConvexLinearFit:
    """With the identity activation and hidden_units >= n_classes the fit
    minimises a convex problem in W = W2 W1, so neither its L-BFGS memory
    nor its start decides where it ends."""

    def test_every_fold_meets_the_optimality_certificate(self):
        spec = make_classifier_spec("NN-Linear")
        for train, _, seed in golden_linear_folds():
            model = spec.fit(train, seed)
            summary = model.describe()
            assert model.warning is None
            assert abs(summary["grad_ratio"] - 1.0) <= 1e-2
            assert 1 <= summary["weight_rank"] <= min(train.d,
                                                      train.n_classes)
            assert summary["rank_rtol"] == neuralnet.RANK_RTOL
            assert summary["rank_limited"] is False

    def test_memory_and_seed_move_no_prediction(self, monkeypatch):
        spec = make_classifier_spec("NN-Linear")
        folds = list(golden_linear_folds())
        at_memory = [spec.fit(train, seed).classify_batch(x)
                     for train, x, seed in folds]
        other_seed = [spec.fit(train, seed + 1).classify_batch(x)
                      for train, x, seed in folds]
        monkeypatch.setattr(neuralnet, "CONVEX_LBFGS_MEMORY",
                            neuralnet.LBFGS_MEMORY)
        short_memory = [spec.fit(train, seed).classify_batch(x)
                        for train, x, seed in folds]
        for got, again, short in zip(at_memory, other_seed, short_memory):
            assert np.array_equal(got, again)
            assert np.array_equal(got, short)

    def test_rank_limited_fit_keeps_the_short_memory(self, monkeypatch):
        kept = []

        class Recording(neuralnet._CompactMemory):
            def __init__(self, dim, size):
                kept.append(size)
                super().__init__(dim, size)

        monkeypatch.setattr(neuralnet, "_CompactMemory", Recording)
        train = random_dataset(60, 4, 6, seed=3)

        def fit(hidden_units):
            return fit_neural_net(train, hidden_units=hidden_units,
                                  activation=Activation.LINEAR,
                                  seed=3)

        limited = fit(3)
        summary = limited.describe()
        # W has rank 3 at most, and the certificate of the convex problem
        # fails by far: the rank limit binds
        assert summary["rank_limited"] is True
        assert summary["weight_rank"] == 3 and summary["grad_ratio"] > 2.0
        assert limited.epochs_run > neuralnet.LBFGS_MEMORY
        fit(6)
        assert kept == [neuralnet.LBFGS_MEMORY, neuralnet.CONVEX_LBFGS_MEMORY]
        # a rank-limited fit reads LBFGS_MEMORY alone, and a longer memory
        # would have moved it
        monkeypatch.setattr(neuralnet, "CONVEX_LBFGS_MEMORY", 80)
        again = fit(3)
        assert np.array_equal(again.params.flat, limited.params.flat)
        assert again.loss_history == limited.loss_history
        monkeypatch.setattr(neuralnet, "LBFGS_MEMORY",
                            neuralnet.CONVEX_LBFGS_MEMORY)
        assert fit(3).loss_history != limited.loss_history
