"""Single-hidden-layer feedforward network with a softmax output layer.

The hidden layer applies one of three activations (tanh, identity, or the
rational sigmoid x/(1+|x|)); the output layer turns logits into class
probabilities with a softmax. Training minimises the penalised objective

    mean cross-entropy + (WEIGHT_PENALTY / 2) (|W1|^2 + |W2|^2)

over the training rows, with the biases unpenalised, by L-BFGS (Liu and
Nocedal, Math. Prog. 45, 1989) and stops once the objective's gradient
norm is at most DEFAULT_GRAD_TOL, or at the cap of DEFAULT_EPOCHS
iterations. Without the penalty a separable training set has no finite
minimiser and the linear network's minimisers are not isolated, so a fit
would end where its iteration cap happened to stop it; with it, every fit
ends at a stationary point of one stated objective. WEIGHT_PENALTY was
chosen on panels the study does not use: among the candidates whose every
fold fit reaches the tolerance within the cap, the largest whose
cross-validated error is within one standard error of the best (Hastie,
Tibshirani and Friedman, Elements of Statistical Learning, 7.10).

The L-BFGS memory depends on whether the problem is convex. With the
identity activation the logits are W x + W2 b1 + b2 for W = W2 W1, and the
penalty, minimised over the factorisations of W, is WEIGHT_PENALTY |W|_*
(nuclear norm) once hidden_units >= rank W (Recht, Fazel and Parrilo, SIAM
Review 52(3), 2010). So a linear fit with hidden_units >= n_classes >=
rank W minimises a convex function of W, and its memory changes how fast
it reaches the minimum, not which minimum: such a fit keeps
CONVEX_LBFGS_MEMORY = 40 pairs. On the study's 60 NN-Linear fold fits
(GeneratorConfig(), cv seed 0, one BLAS thread) that took 9,698
iterations instead of 27,157, and 0.63 instead of 1.67 s, with no holdout
prediction moved and no probability by more than 3.2e-5. Every other fit
keeps LBFGS_MEMORY = 10 pairs: the tanh and rational-sigmoid networks are
not convex, and a longer memory moves where they stop, so their memory is
a model choice; a linear fit with hidden_units < n_classes caps rank W,
and there too the problem is not convex. A linear fit also reports its
optimality certificate (NeuralNetClassifier.describe()).

On the study's arrays (at most 450 rows x 16 features) an L-BFGS iteration
costs numpy's per-call overhead more than arithmetic, so it makes few
calls: the passes run class-major, with hidden values (h, n) and logits
(k, n), so that every reduction over the classes runs along axis 0, and
the direction comes from the compact form of the L-BFGS matrix in about
15 calls instead of the two-loop recursion's 60 (_CompactMemory). On the
study's 180 NN fold fits (GeneratorConfig(), one BLAS thread; medians of
three runs) that took the fits from 18.6 to 10.8 s, and no holdout
prediction moved.

The network always trains on standardised rows, and a predict
standardises its queries with the same map. All randomness (weight
initialisation) comes from fit_neural_net's seed, kept in the model's
TrainConfig. Training and scoring run the same forward pass, so a model's
class probabilities are the softmax its cross-entropy was computed from.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset, check_training_set
from .errors import Setting, non_negative_integer, positive_integer

DEFAULT_HIDDEN_UNITS = 10
# the L-BFGS iteration cap, a guard: the slowest of the 900 fold fits
# WEIGHT_PENALTY was chosen on took 2,255 iterations
DEFAULT_EPOCHS = 3000
DEFAULT_GRAD_TOL = 1e-6
WEIGHT_PENALTY = 3e-3       # lambda of the L2 penalty on W1 and W2
LBFGS_MEMORY = 10           # curvature pairs kept
CONVEX_LBFGS_MEMORY = 40    # pairs kept by a convex fit: linear, h >= K
# rank W counts the singular values above RANK_RTOL times the largest. On
# the 72 linear fits of the full grid and the golden panel, those along
# which G is at lambda are above 6.5e-4 of the largest; those along which
# it is below (0.94 lambda at most), which vanish at the minimiser, stop
# below 2.4e-6; 3e-5 splits that gap by about the same factor each side
RANK_RTOL = 3e-5
_ARMIJO = 1e-4              # sufficient-decrease constant
_EPS = float(np.finfo(float).eps)


class Activation(Setting):
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
    """Settings of one network fit: the seed of the weight initialisation."""

    seed: int = 0


class NetParams:
    """Weights and biases of the two layers, as views into one flat vector
    laid out [w1, w2, b1, b2]: the penalised weights come first, so the
    penalty reads one slice, and an optimiser step is one vector update.
    Also used as the gradient container."""

    def __init__(self, w1, b1, w2, b2):
        (h, d), k = np.shape(w1), np.size(b2)
        flat = np.concatenate([np.ravel(w1), np.ravel(w2), np.ravel(b1),
                               np.ravel(b2)]).astype(float, copy=False)
        self._bind(flat, d, h, k)

    @classmethod
    def of_flat(cls, flat: np.ndarray, d: int, h: int, k: int) -> "NetParams":
        """Parameters viewing flat, without a copy."""
        params = cls.__new__(cls)
        params._bind(flat, d, h, k)
        return params

    def _bind(self, flat: np.ndarray, d: int, h: int, k: int) -> None:
        self.flat = flat
        self.n_weights = h * d + k * h
        self.w1 = flat[:h * d].reshape(h, d)
        self.w2 = flat[h * d:self.n_weights].reshape(k, h)
        self.b1 = flat[self.n_weights:self.n_weights + h]
        self.b2 = flat[self.n_weights + h:]


def initial_params(d: int, h: int, k: int, seed: int) -> NetParams:
    """Seeded uniform init in +-sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    r1 = np.sqrt(6.0 / (d + h))
    r2 = np.sqrt(6.0 / (h + k))
    return NetParams(w1=rng.uniform(-r1, r1, size=(h, d)), b1=np.zeros(h),
                     w2=rng.uniform(-r2, r2, size=(k, h)), b2=np.zeros(k))


def _true_class_picks(y: np.ndarray) -> np.ndarray:
    """Flat positions of the true-class entries of a class-major (n_classes,
    n) array; a flat gather is several times faster than indexing by
    (y, columns)."""
    y = np.asarray(y, dtype=int).reshape(-1)
    return y * y.size + np.arange(y.size)


def _forward(params: NetParams, activation: Activation,
             xt: np.ndarray) -> tuple:
    """One forward pass over the columns of xt, (d, n): pre-activations and
    hidden values (h, n), max-shifted logits and their exponentials (k, n)
    and the column sums of those, so that the class probabilities are
    expd / norm. Class-major arrays put the reductions over the classes
    along axis 0, where numpy takes them row by row and several times
    faster than along a short axis 1."""
    pre = params.w1 @ xt
    pre += params.b1[:, None]
    hidden = activation_value(activation, pre)
    logits = params.w2 @ hidden
    logits += params.b2[:, None]
    logits -= logits.max(axis=0)
    expd = np.exp(logits)
    return pre, hidden, logits, expd, expd.sum(axis=0)


def _forward_state(params: NetParams, activation: Activation, xt: np.ndarray,
                   picks: np.ndarray) -> tuple:
    """One full forward pass: loss plus everything backprop needs."""
    pre, hidden, shifted, expd, norm = _forward(params, activation, xt)
    loss = float((np.log(norm) - shifted.take(picks)).sum()) / norm.size
    return loss, pre, hidden, expd, norm


def _logit_gradient(state: tuple, picks: np.ndarray) -> np.ndarray:
    """The gradient of the mean cross-entropy in the logits, (k, n), from a
    stored forward pass: (probabilities - one-hot labels) / n."""
    expd, norm = state[3], state[4]
    d_logits = expd / norm
    d_logits.reshape(-1)[picks] -= 1.0
    d_logits /= norm.size
    return d_logits


def _gradient_from_state(params: NetParams, activation: Activation,
                         xt: np.ndarray, picks: np.ndarray,
                         state: tuple) -> NetParams:
    """Reverse accumulation reusing a stored forward pass; the gradient of
    the mean cross-entropy, written into one flat vector."""
    _, pre, hidden, _, _ = state
    d_logits = _logit_gradient(state, picks)
    (h, d), k = params.w1.shape, params.b2.size
    grad = NetParams.of_flat(np.empty(params.flat.size), d, h, k)
    np.matmul(d_logits, hidden.T, out=grad.w2)
    d_logits.sum(axis=1, out=grad.b2)
    d_pre = params.w2.T @ d_logits
    if activation is not Activation.LINEAR:
        d_pre *= activation_derivative(activation, pre, hidden)
    np.matmul(d_pre, xt.T, out=grad.w1)
    d_pre.sum(axis=1, out=grad.b1)
    return grad


@dataclass
class NeuralNetClassifier(ClassifierModel):
    """Trained network; scores are the output-layer class probabilities."""

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
    grad_ratio: float | None = None   # linear fits: |G|_2 / WEIGHT_PENALTY
    weight_rank: int | None = None    # linear fits: rank of W = W2 W1

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        q = self.standardizer.apply(x)
        _, _, _, expd, norm = _forward(self.params, self.activation, q.T)
        return (expd / norm).T

    def describe(self) -> dict:
        """The fit's convergence; a linear fit adds its optimality
        certificate (_linear_certificate): grad_ratio = |G|_2 / lambda, at
        most 1 at the convex problem's minimiser, and weight_rank, the
        singular values of W above rank_rtol times the largest.
        rank_limited is hidden_units < n_classes, where the rank of W is
        capped, the problem is not convex and the fit keeps LBFGS_MEMORY."""
        summary = {"activation": self.activation.value, "hidden_units": self.hidden_units,
                   "epochs_run": self.epochs_run,
                   "final_grad_norm": self.final_grad_norm,
                   "warning": self.warning}
        if self.activation is Activation.LINEAR:
            summary.update(grad_ratio=self.grad_ratio,
                           weight_rank=self.weight_rank, rank_rtol=RANK_RTOL,
                           rank_limited=self.hidden_units < self.n_classes)
        return summary


def _objective(theta: np.ndarray, shape: tuple, activation: Activation,
               xt: np.ndarray, picks: np.ndarray) -> tuple:
    """The training objective at the flat parameters theta: mean
    cross-entropy + (WEIGHT_PENALTY / 2) |weights|^2, the parameters
    viewing theta, and the forward-pass state its gradient reuses."""
    params = NetParams.of_flat(theta, *shape)
    state = _forward_state(params, activation, xt, picks)
    w = theta[:params.n_weights]
    return state[0] + 0.5 * WEIGHT_PENALTY * float(w @ w), params, state


def _objective_gradient(params: NetParams, state: tuple, activation: Activation,
                        xt: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """The flat gradient of _objective from its stored forward pass; the
    penalty adds WEIGHT_PENALTY * w to the weights' part only."""
    g = _gradient_from_state(params, activation, xt, picks, state).flat
    g[:params.n_weights] += WEIGHT_PENALTY * params.flat[:params.n_weights]
    return g


def _linear_certificate(params: NetParams, state: tuple, xt: np.ndarray,
                        picks: np.ndarray) -> tuple[float, int]:
    """|G|_2 / WEIGHT_PENALTY and the rank of W = W2 W1 for a linear
    network, G being the gradient of the mean cross-entropy in W at the
    forward pass state of params over the standardised rows xt.

    The logits are W x + W2 b1 + b2, and the penalty, minimised over the
    factorisations of W, is WEIGHT_PENALTY |W|_* once hidden_units >=
    rank W (Recht, Fazel and Parrilo, SIAM Review 52(3), 2010). W is then
    optimal when |G|_2 <= WEIGHT_PENALTY, with equality on its row and
    column spaces, so the ratio reads 1 at the minimiser.
    """
    g = _logit_gradient(state, picks) @ xt.T
    singular = np.linalg.svd(params.w2 @ params.w1, compute_uv=False)
    rank = int(np.count_nonzero(singular > RANK_RTOL * singular[0]))
    return float(np.linalg.norm(g, 2)) / WEIGHT_PENALTY, rank


class _CompactMemory:
    """The last `size` curvature pairs (s_i, y_i), oldest first, and
    the L-BFGS inverse Hessian they define with H0 = g0 I, g0 = s'y / y'y
    of the newest pair, in the compact form of Byrd, Nocedal and Schnabel
    (Math. Prog. 63, 1994, Theorem 2.2):

        H = g0 I + [S  Y] [ R^-T (D + g0 Y'Y) R^-1   -g0 R^-T ] [ S' ]
                          [ -g0 R^-1                     0    ] [ Y' ]

    with R_ij = s_i'y_j for i <= j (upper triangular) and D = diag(s_i'y_i).
    S and Y are kept interleaved, so that S'g and Y'g are one product, and
    D, Y'Y and R^-1 are kept up to date: a new pair adds a column to each,
    and dropping the oldest keeps their trailing blocks (the inverse of an
    upper triangular matrix's trailing block is the trailing block of its
    inverse). The stored pairs are the window [lo, hi) of arrays with room
    for 4 * size pairs, so dropping a pair moves no data until the
    window reaches the end and is copied back to the front."""

    def __init__(self, dim: int, size: int):
        self.size = size
        slots = 4 * size
        self.pairs = np.empty((slots, 2, dim))      # rows s_i, y_i
        self.r_inv = np.zeros((slots, slots))       # zero below the diagonal
        self.yy = np.empty((slots, slots))
        self.sy = np.empty(slots)
        self.gamma = 1.0
        self.lo = self.hi = 0

    @property
    def m(self) -> int:
        """The number of pairs stored."""
        return self.hi - self.lo

    def clear(self) -> None:
        self.lo = self.hi = 0

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        """Store the pair unless s'y <= eps y'y, dropping the oldest pair
        once `size` pairs are stored."""
        sy, yy = float(s @ y), float(y @ y)
        if not sy > _EPS * yy:
            return
        if self.m == self.size:
            self.lo += 1
        lo, hi = self.lo, self.hi
        if hi == self.sy.size:
            hi -= lo
            self.pairs[:hi] = self.pairs[lo:]
            self.r_inv[:hi, :hi] = self.r_inv[lo:, lo:]
            self.yy[:hi, :hi] = self.yy[lo:, lo:]
            self.sy[:hi] = self.sy[lo:]
            lo = self.lo = 0
        if hi > lo:
            stacked = self.pairs[lo:hi].reshape(2 * (hi - lo), -1)
            s_y, y_y = (stacked @ y).reshape(-1, 2).T
            self.r_inv[lo:hi, hi] = self.r_inv[lo:hi, lo:hi] @ s_y
            self.r_inv[lo:hi, hi] *= -1.0 / sy
            self.yy[lo:hi, hi] = self.yy[hi, lo:hi] = y_y
        self.r_inv[hi, hi] = 1.0 / sy
        self.yy[hi, hi] = yy
        self.sy[hi] = sy
        self.pairs[hi, 0] = s
        self.pairs[hi, 1] = y
        self.gamma = sy / yy
        self.hi = hi + 1

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g; -g while no pair is stored."""
        lo, hi = self.lo, self.hi
        if lo == hi:
            return -g
        stacked = self.pairs[lo:hi].reshape(2 * (hi - lo), -1)
        s_g, y_g = (stacked @ g).reshape(-1, 2).T
        r_inv, gamma = self.r_inv[lo:hi, lo:hi], self.gamma
        p = r_inv @ s_g
        coefs = np.empty((hi - lo, 2))
        coefs[:, 0] = r_inv.T @ (self.sy[lo:hi] * p
                                 + gamma * (self.yy[lo:hi, lo:hi] @ p - y_g))
        coefs[:, 1] = -gamma * p
        h_g = coefs.reshape(-1) @ stacked
        h_g += gamma * g
        return -h_g


def _armijo_step(theta: np.ndarray, direction: np.ndarray, slope: float,
                 step: float, loss: float, shape: tuple, data: tuple):
    """_objective at the first theta + step * direction, halving step,
    that meets the Armijo condition f <= loss + _ARMIJO * step * slope;
    None once the predicted decrease step * |slope| is below the rounding
    of the objective. Near that floor the Armijo term rounds away, so a
    step that leaves the objective unchanged in floating point is taken."""
    while -step * slope > _EPS * abs(loss):
        found = _objective(theta + step * direction, shape, *data)
        if found[0] <= loss + _ARMIJO * step * slope:
            return found
        step *= 0.5
    return None


def fit_neural_net(train: Dataset, hidden_units: int = DEFAULT_HIDDEN_UNITS,
                   activation: Activation = Activation.TAN_SIGMOID,
                   seed: int = 0) -> NeuralNetClassifier:
    """Minimise the penalised objective by L-BFGS from initial_params at seed.

    Each iteration steps along the L-BFGS direction of the last
    LBFGS_MEMORY curvature pairs, or of the last CONVEX_LBFGS_MEMORY for a
    linear fit with hidden_units >= n_classes, whose objective is convex in
    W = W2 W1 (module docstring), from a unit step (1/|g| on a steepest-
    descent step), halved until the Armijo condition holds; a pair with
    s'y <= eps y'y is not stored. Training stops when the gradient norm is
    at most DEFAULT_GRAD_TOL. If a step halves until its predicted decrease
    is below the rounding of the objective, the memory is dropped and the
    iteration retried by steepest descent; if that fails too, or
    DEFAULT_EPOCHS iterations pass first, training stops and the returned
    model carries a warning string; it is still usable. loss_history holds
    the penalised objective at the start and after each iteration. A linear
    fit also stores its certificate, |G|_2 / WEIGHT_PENALTY and rank W
    (_linear_certificate), at the returned parameters.
    """
    check_training_set(train)
    hidden_units = positive_integer("hidden_units", hidden_units)
    activation = Activation(activation)
    seed = non_negative_integer("seed", seed)
    standardizer = nm.standardizer_fit(train.x)
    xt = np.ascontiguousarray(standardizer.apply(train.x).T, dtype=float)
    picks = _true_class_picks(train.y)
    shape = (train.d, hidden_units, train.n_classes)
    data = (activation, xt, picks)
    start = initial_params(*shape, seed).flat
    loss, params, state = _objective(start, shape, *data)
    grad = _objective_gradient(params, state, *data)
    grad_norm = float(np.sqrt(grad @ grad))
    history = [loss]
    convex = activation is Activation.LINEAR and hidden_units >= train.n_classes
    memory = _CompactMemory(start.size, CONVEX_LBFGS_MEMORY if convex
                            else LBFGS_MEMORY)
    warning = None
    iteration = 0
    epochs, grad_tol = DEFAULT_EPOCHS, DEFAULT_GRAD_TOL
    while grad_norm > grad_tol:
        if iteration == epochs:
            warning = (f"stopped at the iteration cap {epochs} with "
                       f"gradient norm {grad_norm:.3e} > {grad_tol}")
            break
        direction = memory.direction(grad)
        slope = float(grad @ direction)
        if not slope < 0.0:
            memory.clear()
            direction, slope = -grad, -grad_norm * grad_norm
        step = 1.0 if memory.m else min(1.0, 1.0 / grad_norm)
        found = _armijo_step(params.flat, direction, slope, step, loss,
                             shape, data)
        if found is None:
            if memory.m:
                memory.clear()
                continue
            warning = (f"the line search cannot lower the objective at "
                       f"iteration {iteration + 1}")
            break
        new_loss, trial, new_state = found
        new_grad = _objective_gradient(trial, new_state, *data)
        memory.push(trial.flat - params.flat, new_grad - grad)
        params, loss, grad, state = trial, new_loss, new_grad, new_state
        grad_norm = float(np.sqrt(grad @ grad))
        history.append(loss)
        iteration += 1
    grad_ratio = weight_rank = None
    if activation is Activation.LINEAR:
        grad_ratio, weight_rank = _linear_certificate(params, state, xt, picks)
    return NeuralNetClassifier(params=params, activation=activation,
                               hidden_units=hidden_units,
                               n_classes=train.n_classes,
                               class_names=train.class_names, config=TrainConfig(seed),
                               standardizer=standardizer, epochs_run=iteration,
                               final_grad_norm=grad_norm, warning=warning,
                               loss_history=tuple(history),
                               grad_ratio=grad_ratio, weight_rank=weight_rank)
