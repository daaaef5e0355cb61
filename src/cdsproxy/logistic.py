"""Regularised logistic regression, one binary machine per class.

Each machine maximises the ridge-penalised Bernoulli log-likelihood

    L(beta) = sum_i [ t_i log p_i + (1 - t_i) log(1 - p_i) ] - lambda ||beta_1:d||^2

with p_i = sigmoid(beta' z_i) on intercept-augmented rows; the intercept is
not penalised. Fitting is by damped Newton steps: each proposed step is
halved until the penalised log-likelihood does not decrease. The fit stops
when the gradient norm reaches its tolerance, or when the Newton decrement
g'H^-1 g falls below the rounding level of L, where comparing L values can
no longer judge a step; the fit then takes that last full Newton step and
stops (Boyd & Vandenberghe, Convex Optimization, 9.5.1). Multiclass
scores are the per-class probabilities of the one-vs-rest machines.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset, check_training_set
from .errors import NoConvergence, NotPositiveDefinite, SingularDesign

DEFAULT_RIDGE = 1e-4
DEFAULT_MAX_ITER = 100
DEFAULT_GRAD_TOL = 1e-6
_MAX_HALVINGS = 50
# an unpenalised fit where every |t - p| falls below this has classified
# every point with a logit margin above ~9, certifying the classes are
# linearly separated and the likelihood has no maximiser
_SEPARATION_RESIDUAL = 1e-4


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic function."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    nonneg = v >= 0
    out[nonneg] = 1.0 / (1.0 + np.exp(-v[nonneg]))
    ev = np.exp(v[~nonneg])
    out[~nonneg] = ev / (1.0 + ev)
    return out


def _log_likelihood(z: np.ndarray, t: np.ndarray, beta: np.ndarray,
                    ridge: float) -> float:
    margins = z @ beta
    # log p = -log(1+e^-m) for t=1, log(1-p) = -log(1+e^m) for t=0
    signed = np.where(t > 0.5, -margins, margins)
    ll = -np.logaddexp(0.0, signed).sum()
    return float(ll - ridge * beta[1:] @ beta[1:])


def fit_logistic_binary(z: np.ndarray, t: np.ndarray, ridge: float = DEFAULT_RIDGE,
                        max_iter: int = DEFAULT_MAX_ITER,
                        grad_tol: float = DEFAULT_GRAD_TOL) -> tuple[np.ndarray, int]:
    """Newton-with-halving fit on already intercept-augmented rows z.

    Returns the coefficient vector, with the number of Newton updates that
    reached it, once the gradient norm is at most grad_tol, or after a
    full Newton step whose decrement is below the rounding level of the
    penalised log-likelihood. Raises NoConvergence
    when neither holds after max_iter Newton steps, and SingularDesign when
    the (unridged) Hessian is singular.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float).reshape(-1)
    penalty_mask = np.ones(z.shape[1])
    penalty_mask[0] = 0.0                  # intercept is not penalised
    beta = np.zeros(z.shape[1])
    ll = _log_likelihood(z, t, beta, ridge)
    # the last pass only tests the point that max_iter updates reached
    for iteration in range(max_iter + 1):
        p = sigmoid(z @ beta)
        if ridge == 0.0 and float(np.max(np.abs(t - p))) < _SEPARATION_RESIDUAL:
            raise NoConvergence(
                "the classes are linearly separated, so the unpenalised "
                "likelihood has no maximiser; use a positive ridge penalty")
        grad = z.T @ (t - p) - 2.0 * ridge * penalty_mask * beta
        grad_norm = float(np.sqrt(grad @ grad))
        if grad_norm <= grad_tol:
            return beta, iteration
        if iteration == max_iter:
            raise NoConvergence(
                f"logistic fit: gradient norm {grad_norm:.3e} > {grad_tol} "
                f"after {max_iter} Newton updates")
        w = np.maximum(p * (1.0 - p), 0.0)
        hess = (z * w[:, None]).T @ z + 2.0 * ridge * np.diag(penalty_mask)
        try:
            step = nm.solve_spd(hess, grad)
        except NotPositiveDefinite as exc:
            raise SingularDesign(
                "logistic Hessian is singular; add a ridge penalty") from exc
        if float(grad @ step) <= np.finfo(float).eps * abs(ll):
            # the step's gain is below what ll resolves, so the halving test
            # cannot judge it; the quadratic model can, and it ends the fit
            return beta + step, iteration + 1
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = beta + scale * step
            ll_new = _log_likelihood(z, t, candidate, ridge)
            if ll_new >= ll:
                beta, ll = candidate, ll_new
                break
            scale *= 0.5
        else:
            # beta has not moved, so grad_norm is its gradient norm
            raise NoConvergence(
                f"logistic fit: gradient norm {grad_norm:.3e} > {grad_tol} "
                f"at Newton iteration {iteration + 1}, where no step halved "
                f"up to {_MAX_HALVINGS} times raised the log-likelihood")


@dataclass
class LogisticClassifier(ClassifierModel):
    """One-vs-rest logistic machines; scores are class probabilities."""

    family = "LR"
    coefficients: np.ndarray       # (n_classes, d + 1); column 0 = intercept
    class_names: tuple[str, ...]
    standardizer: nm.Standardizer
    newton_iterations: tuple[int, ...]     # Newton updates of each machine

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        q = self.standardizer.apply(nm.as_rows(x, self.standardizer.means.size))
        z = np.column_stack([np.ones(q.shape[0]), q])
        return sigmoid(z @ self.coefficients.T)

    def describe(self) -> dict:
        return {"family": self.family, "ridge": DEFAULT_RIDGE,
                "newton_iterations": self.newton_iterations}


def fit_logistic_multiclass(train: Dataset) -> LogisticClassifier:
    """Fit one regularised machine per class against the rest on
    standardised rows."""
    check_training_set(train)
    standardizer = nm.standardizer_fit(train.x)
    z = np.column_stack([np.ones(train.n), standardizer.apply(train.x)])
    coefficients = np.empty((train.n_classes, z.shape[1]))
    iterations = []
    for j in range(train.n_classes):
        coefficients[j], count = fit_logistic_binary(
            z, (train.y == j).astype(float))
        iterations.append(count)
    return LogisticClassifier(coefficients=coefficients,
                              class_names=train.class_names,
                              standardizer=standardizer,
                              newton_iterations=tuple(iterations))
