"""Single-hidden-layer feedforward network with a softmax output layer.

The hidden layer applies one of three activations (tanh, identity, or the
rational sigmoid x/(1+|x|)); the output layer turns logits into class
probabilities with a softmax. Training minimises the mean cross-entropy of
the training rows by full-batch gradient descent with a backtracking line
search: the step size is halved until the loss strictly decreases, down to
a floor, and training stops early once the gradient norm is tiny. The
network always trains on standardised rows, and a predict standardises its
queries with the same map. All randomness (weight initialisation) comes
from the seed in TrainConfig. Training and scoring run the same forward
pass, so a model's class probabilities are the softmax its training loss
was computed from.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset, check_training_set
from .errors import BadConfig

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


def activation_derivative(kind: Activation, pre: np.ndarray,
                          hidden: np.ndarray) -> np.ndarray:
    """f'(pre) for the two nonlinear activations, given hidden = f(pre);
    the linear activation's derivative is 1 and is never formed."""
    if kind is Activation.TAN_SIGMOID:
        return 1.0 - hidden * hidden
    return 1.0 / (1.0 + np.abs(pre)) ** 2


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings shared by the iterative trainers."""

    learning_rate: float = DEFAULT_LEARNING_RATE
    epochs: int = DEFAULT_EPOCHS
    seed: int = 0
    grad_tol: float = DEFAULT_GRAD_TOL

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise BadConfig(f"learning rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise BadConfig(f"epochs must be >= 1, got {self.epochs}")
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


def initial_params(d: int, h: int, k: int, seed: int) -> NetParams:
    """Seeded uniform init in +-sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    r1 = np.sqrt(6.0 / (d + h))
    r2 = np.sqrt(6.0 / (h + k))
    return NetParams(w1=rng.uniform(-r1, r1, size=(h, d)), b1=np.zeros(h),
                     w2=rng.uniform(-r2, r2, size=(k, h)), b2=np.zeros(k))


def _true_class_picks(y: np.ndarray, n: int, n_classes: int) -> np.ndarray:
    """Flat positions of the true-class entries of an (n, n_classes) array;
    a flat gather is several times faster than indexing by (rows, y)."""
    y = np.asarray(y, dtype=int).reshape(-1)
    return np.ravel_multi_index((np.arange(n), y), (n, n_classes))


def _forward(params: NetParams, activation: Activation,
             x: np.ndarray) -> tuple:
    """One forward pass: pre-activations, hidden values, max-shifted logits,
    their exponentials and the row sums of those, so that the class
    probabilities are expd / norm[:, None]."""
    pre = x @ params.w1.T + params.b1
    hidden = activation_value(activation, pre)
    logits = hidden @ params.w2.T + params.b2
    # a column loop of np.maximum is several times faster than
    # logits.max(axis=1) over so few classes, and max does not round
    row_max = logits[:, 0].copy()
    for column in logits.T[1:]:
        np.maximum(row_max, column, out=row_max)
    shifted = logits - row_max[:, None]
    expd = np.exp(shifted)
    return pre, hidden, shifted, expd, expd.sum(axis=1)


def _forward_state(params: NetParams, activation: Activation, x: np.ndarray,
                   picks: np.ndarray) -> tuple:
    """One full forward pass: loss plus everything backprop needs."""
    pre, hidden, shifted, expd, norm = _forward(params, activation, x)
    loss = float((np.log(norm) - shifted.take(picks)).mean())
    return loss, pre, hidden, expd, norm


def _gradient_from_state(params: NetParams, activation: Activation,
                         x: np.ndarray, picks: np.ndarray,
                         state: tuple) -> NetParams:
    """Reverse accumulation reusing a stored forward pass."""
    _, pre, hidden, expd, norm = state
    n = x.shape[0]
    d_logits = expd / norm[:, None]
    d_logits.reshape(-1)[picks] -= 1.0
    d_logits /= n
    g_w2 = d_logits.T @ hidden
    g_b2 = d_logits.sum(axis=0)
    d_pre = d_logits @ params.w2
    if activation is not Activation.LINEAR:
        d_pre *= activation_derivative(activation, pre, hidden)
    g_w1 = d_pre.T @ x
    g_b1 = d_pre.sum(axis=0)
    return NetParams(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)


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
    standardizer: nm.Standardizer
    epochs_run: int = 0
    final_grad_norm: float = float("nan")
    warning: str | None = None
    loss_history: tuple = field(default=(), repr=False)

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        q = self.standardizer.apply(nm.as_rows(x, self.standardizer.means.size))
        _, _, _, expd, norm = _forward(self.params, self.activation, q)
        return expd / norm[:, None]

    def describe(self) -> dict:
        return {"family": self.family, "activation": self.activation.value,
                "hidden_units": self.hidden_units,
                "epochs_run": self.epochs_run,
                "final_grad_norm": self.final_grad_norm, "warning": self.warning}


def fit_neural_net(train: Dataset, hidden_units: int = DEFAULT_HIDDEN_UNITS,
                   activation: Activation = Activation.TAN_SIGMOID,
                   config: TrainConfig = TrainConfig()) -> NeuralNetClassifier:
    """Full-batch descent with per-epoch backtracking from the base rate.

    Stops early when the gradient norm falls below config.grad_tol. When no
    halved step improves the loss before the step floor, training stops and
    the returned model carries a warning string; it is still usable.
    """
    check_training_set(train)
    if hidden_units < 1:
        raise BadConfig(f"hidden_units must be >= 1, got {hidden_units}")
    activation = Activation(activation)
    standardizer = nm.standardizer_fit(train.x)
    x = np.ascontiguousarray(standardizer.apply(train.x), dtype=float)
    picks = _true_class_picks(train.y, train.n, train.n_classes)
    params = initial_params(train.d, hidden_units, train.n_classes, config.seed)
    state = _forward_state(params, activation, x, picks)
    loss = state[0]
    grad = _gradient_from_state(params, activation, x, picks, state)
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
            new_state = _forward_state(candidate, activation, x, picks)
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
        grad = _gradient_from_state(params, activation, x, picks, state)
        history.append(loss)
        grad_norm = grad.norm()
    return NeuralNetClassifier(params=params, activation=activation,
                               hidden_units=hidden_units,
                               n_classes=train.n_classes,
                               class_names=train.class_names, config=config,
                               standardizer=standardizer, epochs_run=epoch,
                               final_grad_norm=grad_norm, warning=warning,
                               loss_history=tuple(history))
