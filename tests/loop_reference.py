"""Straightforward versions of the SVM and NN inner loops, used only by tests.

Each function rebuilds its whole state on every iteration, as the loops in
`cdsproxy.svm` and `cdsproxy.neuralnet` did before they were made to
update only what changes. The tests swap them in and require the fitted
models to agree bit for bit.
"""
import numpy as np

from cdsproxy.errors import NoConvergence
from cdsproxy.neuralnet import Activation, NetParams, activation_value
from cdsproxy.svm import _TAU, BinarySvm


def pairwise_ascent(x, y, kernel, cost, tol, max_updates, k_mat, q, alpha,
                    ip_iterations):
    """Pairwise ascent that rebuilds the gradient sign, the index sets and
    -y * grad with whole-vector numpy calls on every update."""
    k_diag = np.diag(k_mat).copy()

    grad = q @ alpha - 1.0
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
        cand = low & (minus_yg < m_val)
        b_vec = m_val - minus_yg
        a_vec = np.maximum(k_diag[i] + k_diag - 2.0 * k_mat[i], _TAU)
        gain = np.where(cand, b_vec * b_vec / a_vec, -np.inf)
        j = int(np.argmax(gain))
        if not cand[j]:
            break
        ai_old, aj_old = alpha[i], alpha[j]
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

    u = y * (grad + 1.0)
    free = (alpha > eps) & (alpha < cost - eps)
    if free.any():
        bias = float((y[free] - u[free]).mean())
    else:
        at_zero, at_cost = alpha <= eps, alpha >= cost - eps
        b_vals = y - u
        lower = b_vals[np.where(pos, at_zero, at_cost)].max(initial=-np.inf)
        upper = b_vals[np.where(pos, at_cost, at_zero)].min(initial=np.inf)
        if np.isfinite(lower) and np.isfinite(upper):
            bias = 0.5 * (lower + upper)
        elif np.isfinite(lower):
            bias = lower
        elif np.isfinite(upper):
            bias = upper
        else:
            bias = 0.0
    return BinarySvm(alpha=alpha, bias=bias, x_train=x, y_train=y, kernel=kernel,
                     cost=cost, kkt_gap=float(gap), n_updates=updates,
                     ip_iterations=ip_iterations)


def _activation_derivative(kind, v):
    if kind is Activation.TAN_SIGMOID:
        t = np.tanh(v)
        return 1.0 - t * t
    if kind is Activation.LINEAR:
        return np.ones_like(v)
    return 1.0 / (1.0 + np.abs(v)) ** 2


def forward_state(params, activation, x, picks):
    """Forward pass with the row maximum taken by logits.max(axis=1) and
    the true-class entries by (rows, y) indexing."""
    rows, y = np.divmod(picks, params.b2.size)
    pre = x @ params.w1.T + params.b1
    hidden = activation_value(activation, pre)
    logits = hidden @ params.w2.T + params.b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    norm = expd.sum(axis=1)
    loss = float((np.log(norm) - shifted[rows, y]).mean())
    return loss, pre, hidden, expd, norm


def gradient_from_state(params, activation, x, picks, state):
    """Backward pass that evaluates f'(pre) from pre for every activation
    and reaches the true-class entries by (rows, y) indexing."""
    rows, y = np.divmod(picks, params.b2.size)
    _, pre, hidden, expd, norm = state
    n = x.shape[0]
    d_logits = expd / norm[:, None]
    d_logits[rows, y] -= 1.0
    d_logits /= n
    g_w2 = d_logits.T @ hidden
    g_b2 = d_logits.sum(axis=0)
    d_pre = (d_logits @ params.w2) * _activation_derivative(activation, pre)
    g_w1 = d_pre.T @ x
    g_b1 = d_pre.sum(axis=0)
    return NetParams(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)
