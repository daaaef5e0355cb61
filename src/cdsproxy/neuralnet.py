"""Single-hidden-layer feedforward network with a softmax output layer.

The hidden layer applies one of three activations (tanh, identity, or the
rational sigmoid x/(1+|x|)); the output layer turns logits into class
probabilities with a softmax. Training minimises the mean cross-entropy of
the training rows by full-batch gradient descent with a backtracking line
search: the step size is halved until the loss strictly decreases, down to
a floor, and training stops early once the gradient norm is tiny. All
randomness (weight initialisation) comes from the seed in TrainConfig.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset
from .errors import BadConfig, DimensionMismatch, EmptyTrainingSet, SingleClassInput

DEFAULT_HIDDEN_UNITS = 10
DEFAULT_LEARNING_RATE = 1.0
DEFAULT_EPOCHS = 2000
DEFAULT_GRAD_TOL = 1e-6
STEP_FLOOR = 1e-10


class Activation(str, enum.Enum):
    TAN_SIGMOID = "tan-sigmoid"
    LINEAR = "linear"
    ELLIOT_SIGMOID = "elliot-sigmoid"


def activation_value(kind: Activation, v: np.ndarray) -> np.ndarray:
    if kind is Activation.TAN_SIGMOID:
        return np.tanh(v)
    if kind is Activation.LINEAR:
        return v
    return v / (1.0 + np.abs(v))


def activation_derivative(kind: Activation, v: np.ndarray) -> np.ndarray:
    if kind is Activation.TAN_SIGMOID:
        t = np.tanh(v)
        return 1.0 - t * t
    if kind is Activation.LINEAR:
        return np.ones_like(v)
    return 1.0 / (1.0 + np.abs(v)) ** 2


def softmax(logits: np.ndarray) -> np.ndarray:
    """Rowwise softmax computed with the max-shift trick."""
    z = np.asarray(logits, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings shared by the iterative trainers."""

    learning_rate: float = DEFAULT_LEARNING_RATE
    epochs: int = DEFAULT_EPOCHS
    seed: int = 0
    penalty: float = 0.0
    grad_tol: float = DEFAULT_GRAD_TOL

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise BadConfig(f"learning rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise BadConfig(f"epochs must be >= 1, got {self.epochs}")
        if self.penalty < 0.0:
            raise BadConfig(f"penalty must be >= 0, got {self.penalty}")
        if not self.grad_tol >= 0.0:
            raise BadConfig(f"gradient tolerance must be >= 0, got {self.grad_tol}")


@dataclass
class NetParams:
    """Weights of the two layers; also used as the gradient container."""

    w1: np.ndarray          # (h, d)
    b1: np.ndarray          # (h,)
    w2: np.ndarray          # (K, h)
    b2: np.ndarray          # (K,)

    def norm(self) -> float:
        total = sum(float((a * a).sum()) for a in (self.w1, self.b1, self.w2, self.b2))
        return float(np.sqrt(total))

    def step(self, grad: "NetParams", eta: float) -> "NetParams":
        return NetParams(w1=self.w1 - eta * grad.w1, b1=self.b1 - eta * grad.b1,
                         w2=self.w2 - eta * grad.w2, b2=self.b2 - eta * grad.b2)

    def copy(self) -> "NetParams":
        return NetParams(self.w1.copy(), self.b1.copy(),
                         self.w2.copy(), self.b2.copy())


def initial_params(d: int, h: int, k: int, seed: int) -> NetParams:
    """Seeded uniform init in +-sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    r1 = np.sqrt(6.0 / (d + h))
    r2 = np.sqrt(6.0 / (h + k))
    return NetParams(w1=rng.uniform(-r1, r1, size=(h, d)), b1=np.zeros(h),
                     w2=rng.uniform(-r2, r2, size=(k, h)), b2=np.zeros(k))


def _check_width(params: NetParams, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != params.w1.shape[1]:
        raise DimensionMismatch(
            f"rows have {x.shape[1]} features, network expects {params.w1.shape[1]}")
    return x


def nn_forward(params: NetParams, activation: Activation,
               x: np.ndarray) -> np.ndarray:
    """Class-probability rows p = softmax(W2 f(W1 x + b1) + b2)."""
    x = _check_width(params, x)
    hidden = activation_value(activation, x @ params.w1.T + params.b1)
    return softmax(hidden @ params.w2.T + params.b2)


def _forward_state(params: NetParams, activation: Activation, x: np.ndarray,
                   rows: np.ndarray, y: np.ndarray) -> tuple:
    """One full forward pass: loss plus everything backprop needs."""
    pre = x @ params.w1.T + params.b1
    hidden = activation_value(activation, pre)
    logits = hidden @ params.w2.T + params.b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    norm = expd.sum(axis=1)
    loss = float((np.log(norm) - shifted[rows, y]).mean())
    return loss, pre, hidden, expd, norm


def _gradient_from_state(params: NetParams, activation: Activation,
                         x: np.ndarray, rows: np.ndarray, y: np.ndarray,
                         state: tuple) -> NetParams:
    """Reverse accumulation reusing a stored forward pass."""
    _, pre, hidden, expd, norm = state
    n = x.shape[0]
    d_logits = expd / norm[:, None]
    d_logits[rows, y] -= 1.0
    d_logits /= n
    g_w2 = d_logits.T @ hidden
    g_b2 = d_logits.sum(axis=0)
    d_pre = (d_logits @ params.w2) * activation_derivative(activation, pre)
    g_w1 = d_pre.T @ x
    g_b1 = d_pre.sum(axis=0)
    return NetParams(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)


def nn_loss(params: NetParams, activation: Activation, x: np.ndarray,
            y: np.ndarray) -> float:
    """Mean cross-entropy of the true classes."""
    x = _check_width(params, x)
    y = np.asarray(y, dtype=int).reshape(-1)
    rows = np.arange(x.shape[0])
    return _forward_state(params, activation, x, rows, y)[0]


def nn_loss_gradient(params: NetParams, activation: Activation, x: np.ndarray,
                     y: np.ndarray) -> tuple[float, NetParams]:
    """Loss and its exact gradient by reverse accumulation."""
    x = _check_width(params, x)
    y = np.asarray(y, dtype=int).reshape(-1)
    if x.shape[0] == 0:
        raise EmptyTrainingSet("gradient needs a non-empty batch")
    rows = np.arange(x.shape[0])
    state = _forward_state(params, activation, x, rows, y)
    grad = _gradient_from_state(params, activation, x, rows, y, state)
    return state[0], grad


@dataclass
class NeuralNetClassifier(ClassifierModel):
    """Trained network; scores are the output-layer class probabilities."""

    family = "NN"
    params: NetParams
    activation: Activation
    hidden_units: int
    n_classes: int
    class_names: tuple[str, ...]
    config: TrainConfig
    standardizer: nm.Standardizer | None = None
    epochs_run: int = 0
    final_grad_norm: float = float("nan")
    warning: str | None = None
    loss_history: tuple = field(default=(), repr=False)

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(np.asarray(x, dtype=float))
        if self.standardizer is not None:
            q = self.standardizer.apply(q)
        return nn_forward(self.params, self.activation, q)

    def describe(self) -> dict:
        return {"family": self.family, "activation": self.activation.value,
                "hidden_units": self.hidden_units,
                "epochs_run": self.epochs_run, "warning": self.warning}


def fit_neural_net(train: Dataset, hidden_units: int = DEFAULT_HIDDEN_UNITS,
                   activation: Activation = Activation.TAN_SIGMOID,
                   config: TrainConfig = TrainConfig(),
                   standardize: bool = True) -> NeuralNetClassifier:
    """Full-batch descent with per-epoch backtracking from the base rate.

    Stops early when the gradient norm falls below config.grad_tol. When no
    halved step improves the loss before the step floor, training stops and
    the returned model carries a warning string; it is still usable.
    """
    if train.n == 0:
        raise EmptyTrainingSet("cannot fit on zero samples")
    if np.unique(train.y).size < 2:
        raise SingleClassInput("network fit needs at least two classes present")
    if hidden_units < 1:
        raise BadConfig(f"hidden_units must be >= 1, got {hidden_units}")
    activation = Activation(activation)
    standardizer = nm.standardizer_fit(train.x) if standardize else None
    x = standardizer.apply(train.x) if standardizer is not None else train.x
    x = np.ascontiguousarray(x, dtype=float)
    y = np.asarray(train.y, dtype=int)
    rows = np.arange(train.n)
    params = initial_params(train.d, hidden_units, train.n_classes, config.seed)
    state = _forward_state(params, activation, x, rows, y)
    loss = state[0]
    grad = _gradient_from_state(params, activation, x, rows, y, state)
    history = [loss]
    warning = None
    grad_norm = grad.norm()
    epoch = 0
    while epoch < config.epochs:
        if grad_norm <= config.grad_tol:
            break
        eta = config.learning_rate
        accepted = False
        while eta >= STEP_FLOOR:
            candidate = params.step(grad, eta)
            new_state = _forward_state(candidate, activation, x, rows, y)
            if new_state[0] < loss:
                params, state, loss = candidate, new_state, new_state[0]
                accepted = True
                break
            eta *= 0.5
        epoch += 1
        if not accepted:
            warning = (f"no descent step above the floor {STEP_FLOOR} improved "
                       f"the loss at epoch {epoch}")
            history.append(loss)
            break
        grad = _gradient_from_state(params, activation, x, rows, y, state)
        history.append(loss)
        grad_norm = grad.norm()
    return NeuralNetClassifier(params=params, activation=activation,
                               hidden_units=hidden_units,
                               n_classes=train.n_classes,
                               class_names=train.class_names, config=config,
                               standardizer=standardizer, epochs_run=epoch,
                               final_grad_norm=grad_norm, warning=warning,
                               loss_history=tuple(history))
