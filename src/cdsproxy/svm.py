"""Soft-margin kernel support vector machines.

The binary machine maximises the usual dual

    W(alpha) = sum_i alpha_i - 1/2 sum_ij alpha_i alpha_j y_i y_j k(x_i, x_j)

subject to 0 <= alpha_i <= C and sum_i alpha_i y_i = 0, by pairwise
coordinate ascent: the first index of each working pair is the steepest
feasible ascent direction, the second maximises the second-order gain, the
pair is solved in closed form and clipped to the box. Multiclass wrappers
combine binary machines one-vs-rest (default) or one-vs-one.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset
from .errors import BadConfig, EmptyTrainingSet, NoConvergence, SingleClassInput
from .logistic import sigmoid

DEFAULT_COST = 1.0
DEFAULT_POLY_DEGREE = 3
DEFAULT_KKT_TOL = 1e-4
DEFAULT_MAX_UPDATES = 100_000
_TAU = 1e-12


class SvmKernel(str, enum.Enum):
    LINEAR = "linear"
    GAUSSIAN = "gaussian"
    POLYNOMIAL = "polynomial"


class MulticlassStrategy(str, enum.Enum):
    ONE_VS_REST = "one-vs-rest"
    ONE_VS_ONE = "one-vs-one"


def default_gaussian_scale(d: int) -> float:
    """Default width parameter c = 1/(2d) for d features."""
    return 1.0 / (2.0 * d)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel descriptor: linear, gaussian exp(-c ||x-y||^2), or (1 + x'y)^p."""

    kind: SvmKernel = SvmKernel.LINEAR
    scale: float | None = None     # gaussian c; None resolves to 1/(2d) at fit
    degree: int = DEFAULT_POLY_DEGREE

    def resolve(self, d: int) -> "KernelSpec":
        if self.kind is SvmKernel.GAUSSIAN and self.scale is None:
            return KernelSpec(kind=self.kind, scale=default_gaussian_scale(d),
                              degree=self.degree)
        return self

    def gram(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.kind is SvmKernel.LINEAR:
            return x @ y.T
        if self.kind is SvmKernel.POLYNOMIAL:
            if self.degree < 1 or int(self.degree) != self.degree:
                raise BadConfig(f"polynomial degree must be a positive integer, got {self.degree}")
            return (1.0 + x @ y.T) ** int(self.degree)
        if self.scale is None:
            raise BadConfig("gaussian kernel scale unresolved; call resolve(d) first")
        if not self.scale > 0.0:
            raise BadConfig(f"gaussian kernel scale must be > 0, got {self.scale}")
        sq = ((x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :]
              - 2.0 * (x @ y.T))
        return np.exp(-self.scale * np.maximum(sq, 0.0))


@dataclass
class BinarySvm:
    """Trained binary machine with labels in {-1, +1}."""

    alpha: np.ndarray          # full n-vector of dual coefficients in [0, C]
    bias: float
    x_train: np.ndarray
    y_train: np.ndarray        # +-1 floats
    kernel: KernelSpec
    cost: float
    kkt_gap: float
    n_updates: int
    support_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        self.support_mask = self.alpha > 0.0

    def decision_batch(self, x: np.ndarray) -> np.ndarray:
        sv = self.support_mask
        if not sv.any():
            return np.full(np.atleast_2d(x).shape[0], self.bias)
        k = self.kernel.gram(np.atleast_2d(x), self.x_train[sv])
        return k @ (self.alpha[sv] * self.y_train[sv]) + self.bias

    def dual_objective(self, gram: np.ndarray | None = None) -> float:
        if gram is None:
            gram = self.kernel.gram(self.x_train, self.x_train)
        v = self.alpha * self.y_train
        return float(self.alpha.sum() - 0.5 * v @ gram @ v)


def fit_svm_binary(x: np.ndarray, y: np.ndarray, kernel: KernelSpec,
                   cost: float = DEFAULT_COST, tol: float = DEFAULT_KKT_TOL,
                   max_updates: int = DEFAULT_MAX_UPDATES,
                   gram: np.ndarray | None = None) -> BinarySvm:
    """Solve the soft-margin dual by second-order pairwise ascent.

    Stops when the maximal KKT violation falls below tol; raises
    NoConvergence if max_updates pair updates do not get there. A
    precomputed Gram matrix of the rows may be passed to share work across
    machines trained on the same features.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = x.shape[0]
    if n == 0:
        raise EmptyTrainingSet("cannot fit on zero samples")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise BadConfig("binary labels must be -1 or +1")
    if np.all(y == y[0]):
        raise SingleClassInput("binary fit needs both labels present")
    if not cost > 0.0:
        raise BadConfig(f"cost must be > 0, got {cost}")
    kernel = kernel.resolve(x.shape[1])
    k_mat = kernel.gram(x, x) if gram is None else gram
    q = (y[:, None] * y[None, :]) * k_mat
    k_diag = np.diag(k_mat).copy()

    alpha = np.zeros(n)
    grad = np.full(n, -1.0)          # gradient of 1/2 a'Qa - sum a
    pos = y > 0.0
    eps = 1e-12 * cost
    updates = 0
    gap = np.inf
    while True:
        up = np.where(pos, alpha < cost - eps, alpha > eps)
        low = np.where(pos, alpha > eps, alpha < cost - eps)
        minus_yg = -y * grad
        up_vals = np.where(up, minus_yg, -np.inf)
        i = int(np.argmax(up_vals))
        m_val = up_vals[i]
        low_vals = np.where(low, minus_yg, np.inf)
        big_m = float(low_vals.min())
        gap = m_val - big_m
        if gap <= tol:
            break
        if updates >= max_updates:
            raise NoConvergence(
                f"KKT gap {gap:.3e} > {tol} after {max_updates} pair updates")
        # second-order choice of the partner index
        cand = low & (minus_yg < m_val)
        b_vec = m_val - minus_yg
        a_vec = np.maximum(k_diag[i] + k_diag - 2.0 * k_mat[i], _TAU)
        gain = np.where(cand, b_vec * b_vec / a_vec, -np.inf)
        j = int(np.argmax(gain))
        if not cand[j]:
            break
        ai_old, aj_old = alpha[i], alpha[j]
        # curvature along the constraint-preserving direction is the same
        # for both label patterns
        quad = max(k_diag[i] + k_diag[j] - 2.0 * k_mat[i, j], _TAU)
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = ai_old - aj_old
            lo_b, hi_b = max(0.0, diff), min(cost, cost + diff)
            ai_new = min(max(ai_old + delta, lo_b), hi_b)
            aj_new = ai_new - diff
        else:
            delta = (grad[i] - grad[j]) / quad
            total = ai_old + aj_old
            lo_b, hi_b = max(0.0, total - cost), min(cost, total)
            ai_new = min(max(ai_old - delta, lo_b), hi_b)
            aj_new = total - ai_new
        alpha[i], alpha[j] = ai_new, aj_new
        grad += q[:, i] * (ai_new - ai_old) + q[:, j] * (aj_new - aj_old)
        updates += 1

    # bias from the free vectors, else the midpoint of the feasible interval
    u = y * (grad + 1.0)             # decision values without bias
    free = (alpha > eps) & (alpha < cost - eps)
    if free.any():
        bias = float((y[free] - u[free]).mean())
    else:
        lower = max([y[t] - u[t] for t in range(n)
                     if (pos[t] and alpha[t] <= eps) or (not pos[t] and alpha[t] >= cost - eps)],
                    default=-np.inf)
        upper = min([y[t] - u[t] for t in range(n)
                     if (pos[t] and alpha[t] >= cost - eps) or (not pos[t] and alpha[t] <= eps)],
                    default=np.inf)
        if np.isfinite(lower) and np.isfinite(upper):
            bias = 0.5 * (lower + upper)
        elif np.isfinite(lower):
            bias = lower
        elif np.isfinite(upper):
            bias = upper
        else:
            bias = 0.0
    return BinarySvm(alpha=alpha, bias=bias, x_train=x, y_train=y, kernel=kernel,
                     cost=cost, kkt_gap=float(gap), n_updates=updates)


@dataclass
class SvmClassifier(ClassifierModel):
    """Multiclass wrapper around binary machines.

    One-vs-rest scores are the raw decision values. One-vs-one scores are
    vote counts plus a (0, 1) logistic squash of the signed decision-value
    sums, so votes dominate and the sums only break vote ties.
    """

    family = "SVM"
    machines: list
    strategy: MulticlassStrategy
    pairs: list[tuple[int, int]]
    n_classes: int
    class_names: tuple[str, ...]
    kernel: KernelSpec
    cost: float
    standardizer: nm.Standardizer | None = None

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(np.asarray(x, dtype=float))
        if self.standardizer is not None:
            q = self.standardizer.apply(q)
        if self.strategy is MulticlassStrategy.ONE_VS_REST:
            return np.column_stack([m.decision_batch(q) for m in self.machines])
        votes = np.zeros((q.shape[0], self.n_classes))
        sums = np.zeros((q.shape[0], self.n_classes))
        for (a, b), machine in zip(self.pairs, self.machines):
            dec = machine.decision_batch(q)
            towards_a = dec > 0.0
            votes[towards_a, a] += 1.0
            votes[~towards_a, b] += 1.0
            sums[:, a] += dec
            sums[:, b] -= dec
        return votes + sigmoid(sums)

    def describe(self) -> dict:
        return {"family": self.family, "kernel": self.kernel.kind.value,
                "strategy": self.strategy.value, "cost": self.cost}


def fit_svm_multiclass(train: Dataset, kernel: KernelSpec = KernelSpec(),
                       cost: float = DEFAULT_COST,
                       strategy: MulticlassStrategy = MulticlassStrategy.ONE_VS_REST,
                       tol: float = DEFAULT_KKT_TOL,
                       max_updates: int = DEFAULT_MAX_UPDATES,
                       standardize: bool = True) -> SvmClassifier:
    """Train one machine per class (one-vs-rest) or per pair (one-vs-one)."""
    if train.n == 0:
        raise EmptyTrainingSet("cannot fit on zero samples")
    if np.unique(train.y).size < 2:
        raise SingleClassInput("multiclass fit needs at least two classes present")
    strategy = MulticlassStrategy(strategy)
    standardizer = nm.standardizer_fit(train.x) if standardize else None
    x = standardizer.apply(train.x) if standardizer is not None else train.x
    kernel = kernel.resolve(train.d)
    gram = kernel.gram(x, x)
    machines, pairs = [], []
    if strategy is MulticlassStrategy.ONE_VS_REST:
        for j in range(train.n_classes):
            y_pm = np.where(train.y == j, 1.0, -1.0)
            machines.append(fit_svm_binary(x, y_pm, kernel, cost=cost, tol=tol,
                                           max_updates=max_updates, gram=gram))
    else:
        for a in range(train.n_classes):
            for b in range(a + 1, train.n_classes):
                idx = np.flatnonzero((train.y == a) | (train.y == b))
                y_pm = np.where(train.y[idx] == a, 1.0, -1.0)
                sub_gram = gram[np.ix_(idx, idx)]
                machines.append(fit_svm_binary(x[idx], y_pm, kernel, cost=cost,
                                               tol=tol, max_updates=max_updates,
                                               gram=sub_gram))
                pairs.append((a, b))
    return SvmClassifier(machines=machines, strategy=strategy, pairs=pairs,
                         n_classes=train.n_classes, class_names=train.class_names,
                         kernel=kernel, cost=cost, standardizer=standardizer)
