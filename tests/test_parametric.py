import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blobs
from cdsproxy.core import Dataset
from cdsproxy.errors import (
    BadConfig,
    DimensionMismatch,
    NoConvergence,
    SingleClassInput,
)
from cdsproxy.logistic import (
    DEFAULT_RIDGE,
    LogisticClassifier,
    fit_logistic_binary,
    fit_logistic_multiclass,
    sigmoid,
)
from cdsproxy.neuralnet import (
    Activation,
    DEFAULT_HIDDEN_UNITS,
    NetParams,
    TrainConfig,
    fit_neural_net,
    initial_params,
    nn_forward,
    nn_loss,
    nn_loss_gradient,
    softmax,
)


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
        beta = fit_logistic_binary(z, t, ridge=DEFAULT_RIDGE)
        want = gradient_ascent_oracle(z, t, DEFAULT_RIDGE)
        assert np.max(np.abs(beta - want)) <= 1e-4

    def test_newton_exit_gradient_is_tiny(self):
        rng = np.random.default_rng(18)
        x = np.vstack([rng.normal(size=(15, 3)) - 0.5,
                       rng.normal(size=(15, 3)) + 0.5])
        t = np.repeat([0.0, 1.0], 15)
        z = np.column_stack([np.ones(30), x])
        beta = fit_logistic_binary(z, t, ridge=DEFAULT_RIDGE, grad_tol=1e-8)
        p = sigmoid(z @ beta)
        mask = np.ones(4)
        mask[0] = 0.0
        grad = z.T @ (t - p) - 2.0 * DEFAULT_RIDGE * mask * beta
        assert np.sqrt(grad @ grad) <= 1e-8

    def test_symmetric_design_zero_intercept(self):
        z = np.column_stack([np.ones(20), np.tile([-1.0, 1.0], 10)])
        t = np.tile([0.0, 1.0], 10)
        beta = fit_logistic_binary(z, t, ridge=0.01)
        assert abs(beta[0]) <= 1e-6

    def test_separable_without_penalty_diverges(self):
        z = np.column_stack([np.ones(8), np.repeat([-2.0, 2.0], 4)])
        t = np.repeat([0.0, 1.0], 4)
        with pytest.raises(NoConvergence):
            fit_logistic_binary(z, t, ridge=0.0)

    def test_penalty_shrinks_coefficients(self):
        z = np.column_stack([np.ones(8), np.repeat([-2.0, 2.0], 4)])
        t = np.repeat([0.0, 1.0], 4)
        small = fit_logistic_binary(z, t, ridge=1e-3)
        large = fit_logistic_binary(z, t, ridge=1.0)
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
        with pytest.raises(SingleClassInput):
            fit_logistic_multiclass(train)

    def test_describe_and_shapes(self):
        train = make_blobs([[0.0], [3.0]], 8, scale=0.5, seed=24)
        model = fit_logistic_multiclass(train)
        assert isinstance(model, LogisticClassifier)
        assert model.coefficients.shape == (2, 2)
        assert model.describe()["scheme"] == "one-vs-rest"


# ------------------------------------------------------------------ network


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25, atol=1e-15)

    def test_exact_ratios(self):
        got = softmax(np.array([0.0, math.log(2.0), math.log(3.0)]))
        assert np.allclose(got, [1 / 6, 1 / 3, 1 / 2], atol=1e-15)

    def test_shift_invariance_and_sum(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            v = rng.normal(size=5) * 10
            a, b = softmax(v), softmax(v + 7.3)
            assert np.max(np.abs(a - b)) <= 1e-12
            assert abs(a.sum() - 1.0) <= 1e-12

    def test_extreme_logits_stable(self):
        got = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.isfinite(got).all() and got[0] == pytest.approx(1.0)


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
        params = NetParams(np.zeros((3, 2)), np.zeros(3), np.zeros(4, ).reshape(4, 1) * np.zeros((4, 3)), np.zeros(4))
        params = NetParams(np.zeros((3, 2)), np.zeros(3), np.zeros((4, 3)), np.zeros(4))
        got = nn_forward(params, Activation.TAN_SIGMOID, np.array([1.5, -2.0]))
        assert np.array_equal(got[0], np.full(4, 0.25))

    def test_linear_collapse_to_multinomial_logit(self):
        rng = np.random.default_rng(31)
        d = 3
        w2 = rng.normal(size=(4, d))
        b2 = rng.normal(size=4)
        params = NetParams(np.eye(d), np.zeros(d), w2, b2)
        x = rng.normal(size=(6, d))
        got = nn_forward(params, Activation.LINEAR, x)
        want = softmax(x @ w2.T + b2)
        assert np.allclose(got, want, atol=1e-14)

    @pytest.mark.parametrize("activation", list(Activation))
    def test_matches_layerwise_recomputation(self, activation):
        params = initial_params(d=4, h=5, k=3, seed=32)
        rng = np.random.default_rng(33)
        for _ in range(10):
            x = rng.normal(size=4)
            got = nn_forward(params, activation, x)[0]
            want = manual_forward(params, activation, x)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_dimension_mismatch(self):
        params = initial_params(d=4, h=5, k=3, seed=34)
        with pytest.raises(DimensionMismatch):
            nn_forward(params, Activation.LINEAR, np.ones(3))


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


def central_difference(params, activation, x, y, step=1e-5):
    theta = flatten_params(params)
    grad = np.empty_like(theta)
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (nn_loss(unflatten_like(up, params), activation, x, y)
                   - nn_loss(unflatten_like(down, params), activation, x, y)) / (2 * step)
    return grad


class TestGradient:
    def test_zero_net_output_bias_gradient(self):
        params = NetParams(np.zeros((2, 2)), np.zeros(2), np.zeros((3, 2)),
                           np.zeros(3))
        _, grad = nn_loss_gradient(params, Activation.TAN_SIGMOID,
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
        _, g1 = nn_loss_gradient(params, Activation.ELLIOT_SIGMOID, x, y)
        _, g2 = nn_loss_gradient(params, Activation.ELLIOT_SIGMOID,
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
            _, grad = nn_loss_gradient(params, activation, x, y)
            ana = flatten_params(grad)
            num = central_difference(params, activation, x, y)
            rel = np.abs(ana - num) / np.maximum(1.0, np.abs(ana))
            assert rel.max() <= 1e-5

    def test_loss_matches_gradient_loss(self):
        params = initial_params(d=2, h=3, k=2, seed=38)
        x = np.random.default_rng(39).normal(size=(7, 2))
        y = np.array([0, 1, 1, 0, 1, 0, 0])
        loss, _ = nn_loss_gradient(params, Activation.TAN_SIGMOID, x, y)
        assert loss == pytest.approx(nn_loss(params, Activation.TAN_SIGMOID, x, y),
                                     rel=1e-15)


def multinomial_logit_oracle(x, y, k):
    """Newton fit of the softmax-regression loss with the last class pinned."""
    n, d = x.shape
    z = np.column_stack([np.ones(n), x])
    m = d + 1
    theta = np.zeros((k - 1) * m)
    onehot = np.eye(k)[y][:, :-1]
    for _ in range(60):
        logits = np.column_stack([z @ theta.reshape(k - 1, m).T, np.zeros(n)])
        p = softmax(logits)
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
    p = softmax(logits)
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

    def test_deterministic_per_seed(self):
        train = make_blobs([[0.0, 0.0], [2.0, 2.0]], 10, scale=0.8, seed=42)
        cfg = TrainConfig(epochs=50, seed=7)
        a = fit_neural_net(train, config=cfg)
        b = fit_neural_net(train, config=cfg)
        assert np.array_equal(a.params.w1, b.params.w1)
        assert np.array_equal(a.params.w2, b.params.w2)
        assert a.loss_history == b.loss_history
        c = fit_neural_net(train, config=TrainConfig(epochs=50, seed=8))
        assert not np.array_equal(a.params.w1, c.params.w1)

    def test_loss_history_non_increasing(self):
        train = make_blobs([[0.0, 0.0], [1.5, 0.5], [0.5, 1.5]], 12,
                           scale=0.7, seed=43)
        model = fit_neural_net(train, config=TrainConfig(epochs=300, seed=1))
        diffs = np.diff(np.array(model.loss_history))
        assert np.all(diffs <= 0.0)

    def test_gradient_tolerance_stop(self):
        x = np.array([[0.0], [0.0]])
        train = Dataset(x=x, y=np.array([0, 1]), class_names=("a", "b"),
                        feature_names=("f",))
        model = fit_neural_net(train, hidden_units=2, standardize=False,
                               config=TrainConfig(epochs=2000, seed=2))
        assert model.epochs_run < 2000
        assert model.final_grad_norm <= 1e-6
        assert model.warning is None

    def test_stall_returns_usable_model_with_warning(self):
        train = make_blobs([[-2.0], [2.0]], 6, scale=0.3, seed=44)
        model = fit_neural_net(train, config=TrainConfig(
            learning_rate=1e-30, epochs=50, seed=3))
        assert model.warning is not None
        assert model.epochs_run == 1
        assert model.scores(np.array([0.0])).shape == (2,)

    def test_capacity_nesting_linear_activation(self):
        train = make_blobs([[0.0, 0.0], [1.6, 0.0], [0.0, 1.6]], 20,
                           scale=1.0, seed=45)
        coef, opt_loss = multinomial_logit_oracle(train.x, train.y, 3)
        d, k = 2, 3
        h = max(d, k)
        w1 = np.zeros((h, d))
        w1[:d, :d] = np.eye(d)
        w2 = np.zeros((k, h))
        w2[:-1, :d] = coef[:, 1:]
        b2 = np.concatenate([coef[:, 0], [0.0]])
        embedded = NetParams(w1, np.zeros(h), w2, b2)
        emb_loss = nn_loss(embedded, Activation.LINEAR, train.x, train.y)
        assert emb_loss == pytest.approx(opt_loss, abs=1e-12)
        model = fit_neural_net(train, hidden_units=h,
                               activation=Activation.LINEAR,
                               standardize=False,
                               config=TrainConfig(epochs=2000, seed=4))
        trained_loss = model.loss_history[-1]
        assert trained_loss >= opt_loss - 1e-9
        assert trained_loss <= opt_loss + 0.02

    def test_config_validation(self):
        with pytest.raises(BadConfig):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(BadConfig):
            TrainConfig(epochs=0)
        with pytest.raises(BadConfig):
            TrainConfig(penalty=-1.0)
        train = make_blobs([[0.0], [1.0]], 4, scale=0.2, seed=46)
        with pytest.raises(BadConfig):
            fit_neural_net(train, hidden_units=0)

    def test_single_class_rejected(self):
        train = Dataset(x=np.zeros((3, 1)), y=np.zeros(3, dtype=int),
                        class_names=("only",), feature_names=("f",))
        with pytest.raises(SingleClassInput):
            fit_neural_net(train)
