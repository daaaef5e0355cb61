"""Regularised logistic regression, one binary machine per class.

Each machine maximises the ridge-penalised Bernoulli log-likelihood

    L(beta) = sum_i [ t_i log p_i + (1 - t_i) log(1 - p_i) ] - lambda ||beta_1:d||^2

with p_i = sigmoid(beta' z_i) on intercept-augmented rows and lambda =
DEFAULT_RIDGE; the intercept is not penalised. Fitting is by damped Newton
steps: each proposed step is halved until the penalised log-likelihood does
not decrease. The fit stops when the gradient norm reaches DEFAULT_GRAD_TOL,
or when the Newton decrement g'H^-1 g falls below the rounding level of L,
where comparing L values can no longer judge a step; the fit then takes
that last full Newton step and stops (Boyd & Vandenberghe, Convex
Optimization, 9.5.1). It raises NoConvergence after DEFAULT_MAX_ITER
Newton steps. Multiclass scores are the per-class probabilities of the
one-vs-rest machines.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset, check_training_set
from .errors import NoConvergence

DEFAULT_RIDGE = 1e-4
DEFAULT_MAX_ITER = 100
DEFAULT_GRAD_TOL = 1e-6
_MAX_HALVINGS = 50


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic function."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    nonneg = v >= 0
    out[nonneg] = 1.0 / (1.0 + np.exp(-v[nonneg]))
    ev = np.exp(v[~nonneg])
    out[~nonneg] = ev / (1.0 + ev)
    return out


def _log_likelihood(z: np.ndarray, t: np.ndarray, beta: np.ndarray) -> float:
    margins = z @ beta
    # log p = -log(1+e^-m) for t=1, log(1-p) = -log(1+e^m) for t=0
    signed = np.where(t > 0.5, -margins, margins)
    ll = -np.logaddexp(0.0, signed).sum()
    return float(ll - DEFAULT_RIDGE * beta[1:] @ beta[1:])


def fit_logistic_binary(z: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, int]:
    """Newton-with-halving fit on already intercept-augmented rows z.

    Returns the coefficient vector, with the number of Newton updates that
    reached it, once the gradient norm is at most DEFAULT_GRAD_TOL, or
    after a full Newton step whose decrement is below the rounding level of
    the penalised log-likelihood. Raises NoConvergence when neither holds
    after DEFAULT_MAX_ITER Newton steps, and NotPositiveDefinite when the
    penalised Hessian is singular.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float).reshape(-1)
    penalty = np.full(z.shape[1], 2.0 * DEFAULT_RIDGE)
    penalty[0] = 0.0                       # intercept is not penalised
    beta = np.zeros(z.shape[1])
    ll = _log_likelihood(z, t, beta)
    max_iter, grad_tol = DEFAULT_MAX_ITER, DEFAULT_GRAD_TOL
    # the last pass only tests the point that max_iter updates reached
    for iteration in range(max_iter + 1):
        p = sigmoid(z @ beta)
        grad = z.T @ (t - p) - penalty * beta
        grad_norm = float(np.sqrt(grad @ grad))
        if grad_norm <= grad_tol:
            return beta, iteration
        if iteration == max_iter:
            raise NoConvergence(
                f"logistic fit: gradient norm {grad_norm:.3e} > {grad_tol} "
                f"after {max_iter} Newton updates")
        w = np.maximum(p * (1.0 - p), 0.0)
        hess = (z * w[:, None]).T @ z + np.diag(penalty)
        step = nm.solve_spd(hess, grad, "logistic Hessian is singular")
        if float(grad @ step) <= np.finfo(float).eps * abs(ll):
            # the step's gain is below what ll resolves, so the halving test
            # cannot judge it; the quadratic model can, and it ends the fit
            return beta + step, iteration + 1
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = beta + scale * step
            ll_new = _log_likelihood(z, t, candidate)
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

    coefficients: np.ndarray       # (n_classes, d + 1); column 0 = intercept
    class_names: tuple[str, ...]
    standardizer: nm.Standardizer
    newton_iterations: tuple[int, ...]     # Newton updates of each machine

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        q = self.standardizer.apply(x)
        z = np.column_stack([np.ones(q.shape[0]), q])
        return sigmoid(z @ self.coefficients.T)

    def describe(self) -> dict:
        return {"ridge": DEFAULT_RIDGE, "newton_iterations": self.newton_iterations}


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
