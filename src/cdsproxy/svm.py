"""Soft-margin kernel support vector machines.

The binary machine maximises the usual dual

    W(alpha) = sum_i alpha_i - 1/2 sum_ij alpha_i alpha_j y_i y_j k(x_i, x_j)

subject to 0 <= alpha_i <= C and sum_i alpha_i y_i = 0, by pairwise
coordinate ascent: the first index of each working pair is the steepest
feasible ascent direction, the second maximises the second-order gain, the
pair is solved in closed form and clipped to the box. The multiclass model
trains one machine per class against the rest on standardised rows, which
every machine shares, and scores queries with one kernel product over them.

The kernel picks each multiclass machine's route. A linear or polynomial
machine whose kernel has an exact feature map G of r < n columns, for n
rows, is solved by a Mehrotra predictor-corrector interior-point method
(Mehrotra, SIAM J. Optim. 2(4), 1992) through G: there K = GG' cannot
have full rank. Otherwise it is solved densely, by a primal-dual
active-set iteration, with the interior point on K as its fallback.
Every machine then ends in fit_svm_binary's ascent, which polishes that
alpha, or starts from 0 for a gaussian machine, and checks its KKT
conditions. fit_svm_multiclass states that policy.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset, check_training_set
from .errors import (
    BadConfig,
    DimensionMismatch,
    EmptyClass,
    NoConvergence,
    NotPositiveDefinite,
    Setting,
    TooFewSamples,
    positive_integer,
    real_number,
)

DEFAULT_COST = 1.0
DEFAULT_POLY_DEGREE = 3
DEFAULT_KKT_TOL = 1e-4
DEFAULT_MAX_UPDATES = 100_000
_TAU = 1e-12
_IP_TOL = 1e-9             # interior-point stop on scaled residuals and mu / C
_IP_MAX_ITERATIONS = 100
_IP_STEP = 0.995           # share of the way to the boundary per step
_SNAP = 1e-7               # alphas this share of C from a bound go onto it
_AS_MAX_ROUNDS = 100       # active-set rounds before the interior point takes over


class SvmKernel(Setting):
    LINEAR = "linear"
    GAUSSIAN = "gaussian"
    POLYNOMIAL = "polynomial"


def default_gaussian_scale(d: int) -> float:
    """Default width parameter c = 1/(2d) for d features."""
    return 1.0 / (2.0 * d)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel descriptor: linear, gaussian exp(-c ||x-y||^2), or (1 + x'y)^p.
    BadConfig for a scale on a kernel that is not gaussian, or a degree
    other than DEFAULT_POLY_DEGREE on one that is not polynomial."""

    kind: SvmKernel = SvmKernel.LINEAR
    scale: float | None = None     # gaussian c; None resolves to 1/(2d) at fit
    degree: int = DEFAULT_POLY_DEGREE

    def __post_init__(self):
        object.__setattr__(self, "kind", SvmKernel(self.kind))
        if self.kind is SvmKernel.POLYNOMIAL:
            object.__setattr__(self, "degree", positive_integer("polynomial degree", self.degree))
        elif self.degree != DEFAULT_POLY_DEGREE:
            raise BadConfig(f"a {self.kind.value} kernel has no degree, got {self.degree!r}")
        if self.scale is not None and self.kind is not SvmKernel.GAUSSIAN:
            raise BadConfig(f"a {self.kind.value} kernel has no scale, got {self.scale!r}")
        if self.scale is not None:
            object.__setattr__(self, "scale", real_number("gaussian kernel scale", self.scale, 0.0))

    def resolve(self, d: int) -> "KernelSpec":
        if self.kind is SvmKernel.GAUSSIAN and self.scale is None:
            return replace(self, scale=default_gaussian_scale(d))
        return self

    def gram(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.kind is SvmKernel.LINEAR:
            return x @ y.T
        if self.kind is SvmKernel.POLYNOMIAL:
            return (1.0 + x @ y.T) ** self.degree
        if self.scale is None:
            raise BadConfig("gaussian kernel scale unresolved; call resolve(d) first")
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
    n_updates: int             # pair updates that produced alpha
    ip_iterations: int = 0       # interior-point iterations that found the start
    active_set_rounds: int = 0   # active-set rounds that found the start

def fit_svm_binary(x: np.ndarray, y: np.ndarray, kernel: KernelSpec,
                   gram: np.ndarray | None = None,
                   alpha: np.ndarray | None = None) -> BinarySvm:
    """Solve the soft-margin dual with C = DEFAULT_COST by second-order
    pairwise ascent from a feasible alpha, or from 0, until the maximal KKT
    violation is at most DEFAULT_KKT_TOL.

    gram, the rows' Gram matrix, shares work across machines on the same
    features. alpha, another solver's point, is finished and checked; a
    float array is updated in place, as LIBSVM's solver updates its start.
    Raises DimensionMismatch when y, gram or alpha does not match the rows,
    BadConfig when alpha leaves [0, C] or |y'alpha| > 1e-9 C n, and
    NoConvergence at DEFAULT_MAX_UPDATES updates, or when the gap is not
    finite (as on a Gram matrix that is not) or no index pairs with the
    steepest.

    grad is the gradient of 1/2 a'Qa - sum a, with Q = yy' * K, and the
    loop runs on minus_yg = -y * grad, which rounds to y - K (y * alpha)
    as y = +-1. Adding the step -y_i da_i K[:, i] - y_j da_j K[:, j] to it
    rounds to exactly -y times the updated gradient, so grad itself is
    never formed. The loop keeps minus_yg only as two masked copies,
    up_vals on the up set (-inf off it) and low_vals on the low set (+inf
    off it): both take the same step, which leaves the infinities as they
    are, and the sets change only at the two updated indices. Every other
    per-update vector is written into a buffer made once.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = x.shape[0]
    if n == 0:
        raise TooFewSamples("cannot fit on zero samples")
    alpha = np.zeros(n) if alpha is None else np.asarray(alpha, dtype=float)
    if (y.size != n or alpha.shape != (n,)
            or (gram is not None and np.shape(gram) != (n, n))):
        raise DimensionMismatch(
            f"{n} rows need {n} labels, {n} alphas and an {n} x {n} Gram matrix, "
            f"not {y.size}, {alpha.shape} and {None if gram is None else np.shape(gram)}")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise BadConfig("binary labels must be -1 or +1")
    if np.all(y == y[0]):
        raise EmptyClass("binary fit needs both labels present")
    cost, tol = DEFAULT_COST, DEFAULT_KKT_TOL
    if not (np.all((alpha >= 0.0) & (alpha <= cost))
            and abs(float(y @ alpha)) <= 1e-9 * cost * n):
        raise BadConfig(f"a start alpha must lie in [0, {cost}] with "
                        f"|y'alpha| <= 1e-9 C n")
    kernel = kernel.resolve(x.shape[1])
    k_mat = kernel.gram(x, x) if gram is None else gram
    minus_yg = y - k_mat @ (y * alpha)
    k_diag = np.diag(k_mat).copy()
    pos = y > 0.0
    eps = 1e-12 * cost
    top = cost - eps
    up = np.where(pos, alpha < top, alpha > eps)
    up_vals = np.where(up, minus_yg, -np.inf)
    low_vals = np.where(np.where(pos, alpha > eps, alpha < top), minus_yg, np.inf)
    b_vec, a_vec, gain, step, term = (np.empty(y.size) for _ in range(5))
    updates = 0
    while True:
        i = int(up_vals.argmax())
        m_val = up_vals.item(i)
        # m_val - minus_yg on the low set and -inf off it, so its maximum is
        # the gap and the partner candidates are where it is positive
        np.subtract(m_val, low_vals, out=b_vec)
        gap = float(b_vec.max())
        if not math.isfinite(gap):
            raise NoConvergence(
                f"KKT gap {gap} is not finite after {updates} pair updates")
        if gap <= tol:
            break
        if updates >= DEFAULT_MAX_UPDATES:
            raise NoConvergence(f"KKT gap {gap:.3e} > {tol} after "
                                f"{DEFAULT_MAX_UPDATES} pair updates")
        # second-order choice of the partner index; a gain over max(b, 0)
        # is 0 off the candidates and positive on them
        np.add(k_diag, k_diag.item(i), out=a_vec)
        np.multiply(k_mat[i], 2.0, out=term)
        np.subtract(a_vec, term, out=a_vec)
        np.maximum(a_vec, _TAU, out=a_vec)
        np.maximum(b_vec, 0.0, out=gain)
        np.multiply(gain, gain, out=gain)
        np.divide(gain, a_vec, out=gain)
        j = int(gain.argmax())
        if not b_vec.item(j) > 0.0:
            raise NoConvergence(f"KKT gap {gap:.3e} > {tol} but no index pairs "
                                f"with {i} after {updates} pair updates")
        # the pair's scalars as Python floats, which round as numpy's do;
        # i is on the up set and j, a candidate, on the low set
        ai_old, aj_old = alpha.item(i), alpha.item(j)
        yi, yj = y.item(i), y.item(j)
        # curvature along the constraint-preserving direction is the same
        # for both label patterns, and so is the unclipped step of alpha_i
        quad = max(k_diag.item(i) + k_diag.item(j) - 2.0 * k_mat.item(i, j), _TAU)
        delta = yi * (m_val - low_vals.item(j)) / quad
        if yi != yj:
            diff = ai_old - aj_old
            lo_b, hi_b = max(0.0, diff), min(cost, cost + diff)
            ai_new = min(max(ai_old + delta, lo_b), hi_b)
            aj_new = ai_new - diff
        else:
            total = ai_old + aj_old
            lo_b, hi_b = max(0.0, total - cost), min(cost, total)
            ai_new = min(max(ai_old + delta, lo_b), hi_b)
            aj_new = total - ai_new
        alpha[i], alpha[j] = ai_new, aj_new
        np.multiply(k_mat[:, i], -yi * (ai_new - ai_old), out=step)
        np.multiply(k_mat[:, j], -yj * (aj_new - aj_old), out=term)
        step += term
        up_vals += step
        low_vals += step
        for t, value, a_t, y_t in ((i, up_vals.item(i), ai_new, yi),
                                   (j, low_vals.item(j), aj_new, yj)):
            below_cost, above_zero = a_t < top, a_t > eps
            in_up, in_low = ((below_cost, above_zero) if y_t > 0.0
                             else (above_zero, below_cost))
            up[t] = in_up
            up_vals[t] = value if in_up else -np.inf
            low_vals[t] = value if in_low else np.inf
        updates += 1

    # bias from the free vectors, else the midpoint of the feasible interval;
    # every index is on the up or the low set, and u = y * (grad + 1), the
    # decision values without bias, is y - minus_yg
    u = y - np.where(up, up_vals, low_vals)
    free = (alpha > eps) & (alpha < top)
    if free.any():
        bias = float((y[free] - u[free]).mean())
    else:
        # with no free index every alpha is within eps of 0 or C, so
        # y'alpha = C (k+ - k-) up to n eps and the updates' rounding, for
        # the k+ positive and k- negative indices at C. The start's
        # |y'alpha| <= 1e-9 C n, which every update keeps, then forces
        # k+ = k- for n below about 1e8: the lower set (positives at 0,
        # negatives at C) holds as many indices as there are positives,
        # the upper set as many as there are negatives, and neither is empty
        at_zero, at_cost = alpha <= eps, alpha >= top
        b_vals = y - u
        lower = b_vals[np.where(pos, at_zero, at_cost)].max()
        upper = b_vals[np.where(pos, at_cost, at_zero)].min()
        bias = 0.5 * (lower + upper)
    return BinarySvm(alpha=alpha, bias=bias, x_train=x, y_train=y, kernel=kernel,
                     cost=cost, kkt_gap=float(gap), n_updates=updates)


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest t with v + t dv >= 0, for v > 0 (inf if dv >= 0)."""
    down = dv < 0.0
    return float((-v[down] / dv[down]).min(initial=np.inf))


def _kernel_factor(kernel: KernelSpec, x: np.ndarray) -> np.ndarray | None:
    """G (n x r) with GG' = kernel.gram(x, x) up to rounding, built from a
    linear or polynomial kernel's exact feature map, or None when r >= n,
    where K can have full rank; r is counted before any column is built.
    The gaussian kernel's map has no finite r, and no caller passes that
    kernel.

    Linear: G = x, r = d. Polynomial of degree p: one column per monomial
    x^a with |a| <= p, scaled by sqrt(p! / ((p - |a|)! a!)), the root of
    its coefficient in the expansion of (1 + x'y)^p, so r = C(d + p, p)
    (Schoelkopf and Smola, Learning with Kernels, 2002).
    """
    n, d = x.shape
    if kernel.kind is SvmKernel.LINEAR:
        return x if d < n else None
    p = kernel.degree
    if math.comb(d + p, p) >= n:
        return None
    columns = []
    for k in range(p + 1):
        for a in itertools.combinations_with_replacement(range(d), k):
            a_factorial = math.prod(math.factorial(a.count(i)) for i in set(a))
            coef = math.factorial(p) // (math.factorial(p - k) * a_factorial)
            columns.append(math.sqrt(coef) * x[:, a].prod(axis=1))
    return np.column_stack(columns)


def _interior_point(k_mat: np.ndarray, y: np.ndarray,
                    factor: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Solve the dual with C = DEFAULT_COST by Mehrotra's predictor-corrector
    interior-point method; return alpha on the box with y'alpha = 0, and
    the iterations.

    Minimises 1/2 a'Qa - sum a, Q = yy' * K, with slacks s = C - a and
    multipliers z of a >= 0, w of a <= C and b of y'a = 0, all of a, s, z,
    w kept positive. Each direction solves (Q + D) [u, v] = [g, y] for
    D = diag(z/a + w/s) once, as (K + D) [y*u, y*v] = [y*g, 1], which
    rounds to the same u and v as y = +-1, and takes
    db = (y'u + y'a) / y'v, da = u - v db, so the step toward y'a = 0 is
    eliminated in closed form. With factor = None the predictor and the
    corrector share one factorisation per iteration, a dense Cholesky of
    K + D (numerics.spd_solver), D going onto k_mat's diagonal for it
    only. With a factor G, GG' = K, the solves go through the
    Sherman-Morrison-Woodbury identity on the scaled P = D^-1/2 G,
    (K + D)^-1 = D^-1/2 (I - P (I + P'P)^-1 P') D^-1/2 (Fine and
    Scheinberg, JMLR 2, 2001; Ferris and Munson, SIAM J. Optim. 13(3),
    2002): they share the r x r matrix I + P'P, formed once per iteration,
    but each solve's np.linalg.solve LU-factors it anew, so it is factored
    twice per iteration. The residuals, and so the stop
    test, are always taken on k_mat itself. At the end every alpha within
    _SNAP * C of a bound goes onto it, and y'alpha = 0 is restored by one
    equal shift of the free alphas along y, clipped back into the box;
    while a clip leaves |y'alpha| above 1e-12 C n, the shift is repeated
    over the alphas still strictly inside the box. Raises NoConvergence if
    _IP_MAX_ITERATIONS pass first, or if no alpha is left inside the box
    to restore y'alpha = 0, and NotPositiveDefinite if the Cholesky of
    K + D fails.
    """
    n, cost = y.size, DEFAULT_COST
    k_diag = k_mat.diagonal().copy()
    # the dual residual is measured against the size of its terms, as
    # |K_ij| <= max_i K_ii for a positive semidefinite K, so that rounding
    # in Q alpha at large n or large kernel values cannot hold it above tol
    r_scale = 1.0 + cost * float(k_diag.max())
    ones = np.ones(n)
    alpha = np.full(n, 0.5 * cost)
    s = alpha.copy()
    z, w = np.ones(n), np.ones(n)
    b = 0.0
    iterations = 0
    while True:
        r_dual = y * (k_mat @ (y * alpha)) - 1.0 + b * y - z + w
        r_eq = float(y @ alpha)
        mu = float(alpha @ z + s @ w) / (2 * n)
        residual = max(float(np.abs(r_dual).max()) / r_scale, abs(r_eq) / cost,
                       mu / cost)
        if residual <= _IP_TOL:
            break
        if iterations == _IP_MAX_ITERATIONS:
            raise NoConvergence(f"interior point residual {residual:.3e} > "
                                f"{_IP_TOL} after {iterations} iterations")
        diag = z / alpha + w / s
        # one n x n factor alive at a time: drop the last one first
        solve = None
        if factor is None:
            k_mat.flat[::n + 1] += diag
            try:
                solve = nm.spd_solver(k_mat, "interior-point K + D")
            finally:
                k_mat.flat[::n + 1] = k_diag
        else:
            scale = (1.0 / np.sqrt(diag))[:, None]
            p = factor * scale
            m_mat = p.T @ p
            m_mat.flat[::m_mat.shape[0] + 1] += 1.0

            # pivoted LU, not Cholesky: a small share of the iteration, and
            # a Cholesky of I + P'P failed on SVM-Linear FS1 by rounding
            def solve(rhs):
                rhs = rhs * scale
                return (rhs - p @ np.linalg.solve(m_mat, p.T @ rhs)) * scale

        def direction(sigma_mu, c_z, c_w):
            # complementarity targets alpha*z = s*w = sigma_mu, less the
            # corrector's second-order terms c_z and c_w
            t_z, t_w = (sigma_mu - c_z) / alpha, (sigma_mu - c_w) / s
            g = -r_dual + t_z - z - t_w + w
            u, v = y * solve(np.column_stack([y * g, ones])).T
            db = (y @ u + r_eq) / (y @ v)
            da = u - v * db
            return da, db, t_z - z - z / alpha * da, t_w - w + w / s * da

        def step(da, dz, dw):
            return min(_max_step(alpha, da), _max_step(s, -da),
                       _max_step(z, dz), _max_step(w, dw))

        da, db, dz, dw = direction(0.0, 0.0, 0.0)
        t = min(1.0, step(da, dz, dw))
        mu_aff = float((alpha + t * da) @ (z + t * dz)
                       + (s - t * da) @ (w + t * dw)) / (2 * n)
        da, db, dz, dw = direction((mu_aff / mu) ** 3 * mu, da * dz, -da * dw)
        t = min(1.0, _IP_STEP * step(da, dz, dw))
        alpha += t * da
        s -= t * da
        z += t * dz
        w += t * dw
        b += t * db
        iterations += 1
    at_zero, at_cost = alpha <= _SNAP * cost, s <= _SNAP * cost
    alpha[at_zero], alpha[at_cost] = 0.0, cost
    bound = 1e-12 * cost * n
    free = ~(at_zero | at_cost)
    while free.any():
        alpha[free] -= y[free] * (float(y @ alpha) / np.count_nonzero(free))
        np.clip(alpha, 0.0, cost, out=alpha)
        inside = (alpha > 0.0) & (alpha < cost)
        # only a clip can leave |y'alpha| above the bound, and it moves at
        # least one free alpha onto the box, so the free set shrinks
        if abs(float(y @ alpha)) <= bound or np.array_equal(inside, free):
            break
        free = inside
    if abs(float(y @ alpha)) > bound:
        raise NoConvergence(f"interior point alpha breaks y'alpha = 0 by "
                            f"{float(y @ alpha):.3e} after snapping to the box")
    return alpha, iterations


def _active_set(k_mat: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve the dual with C = DEFAULT_COST by a primal-dual active-set
    iteration from every index free; return alpha, on the box with
    y'alpha = 0 up to rounding, and the rounds.

    In beta = y * alpha the dual is min 1/2 beta'K beta - y'beta subject to
    1'beta = 0 and alpha in the box. With the free set F, the set U at C
    and the rest at 0, the optimum over F solves
    [K_FF 1; 1' 0][beta_F; b] = [y_F - K_FU beta_U; -1'beta_U]: one
    Cholesky of K_FF (numerics.spd_solver) solves for both right-hand sides
    [y_F - K_FU beta_U, 1], u and v, and then b = (1'u + 1'beta_U) / 1'v
    and beta_F = u - b v. Each round moves every free index whose alpha
    left [0, C] onto the bound it crossed, and frees every bound index
    whose gradient y * (K beta + b) - 1 has the wrong sign, negative at 0
    or positive at C; the sets are right, and alpha optimal, when no index
    moves (Hintermueller, Ito and Kunisch, SIAM J. Optim. 13(3), 2003; for
    the SVM dual, Scheinberg, JMLR 7, 2006). A round depends on the sets
    alone, so sets met before mean an endless cycle. Raises
    NotPositiveDefinite if a Cholesky of K_FF fails, and NoConvergence if
    a solve is not finite, no index is left free, the sets repeat, or they
    still move after _AS_MAX_ROUNDS rounds.
    """
    cost = DEFAULT_COST
    free, at_cost = np.ones(y.size, dtype=bool), np.zeros(y.size, dtype=bool)
    rounds, seen = 0, set()
    while True:
        if rounds == _AS_MAX_ROUNDS:
            raise NoConvergence(f"active sets still move after {rounds} rounds")
        sets = (free.tobytes(), at_cost.tobytes())
        if sets in seen:
            raise NoConvergence(f"active sets repeat after {rounds} rounds")
        seen.add(sets)
        if not free.any():
            raise NoConvergence(f"no free index left after {rounds} rounds")
        beta = np.where(at_cost, cost * y, 0.0)
        # beta is 0 on F, so (K beta)_F = K_FU beta_U
        rhs = np.column_stack([y[free] - (k_mat @ beta)[free],
                               np.ones(np.count_nonzero(free))])
        # K itself while every index is free, so that no copy of K is alive
        # next to its factor in the first and largest round
        k_free = k_mat if free.all() else k_mat[np.ix_(free, free)]
        u, v = nm.spd_solver(k_free, "active-set K_FF")(rhs).T
        b = (u.sum() + beta.sum()) / v.sum()
        beta[free] = u - b * v
        rounds += 1
        if not (math.isfinite(b) and np.isfinite(beta).all()):
            raise NoConvergence(f"active-set solve is not finite in round {rounds}")
        alpha = y * beta
        grad = y * (k_mat @ beta + b) - 1.0
        below, above = free & (alpha < 0.0), free & (alpha > cost)
        freed = np.where(at_cost, grad > 0.0, ~free & (grad < 0.0))
        if not (below.any() or above.any() or freed.any()):
            return alpha, rounds
        free = (free & ~below & ~above) | freed
        at_cost = (at_cost & ~freed) | above


@dataclass
class SvmClassifier(ClassifierModel):
    """One-vs-rest machines; scores are the raw decision values, all from one
    Gram block of the queries against the rows X every machine shares:
    k(q, X) C + b, column j of C being machine j's alpha * y, b the biases.
    The machines share one resolved kernel object too, so the first one's
    kernel and rows give the block; the fold's Dataset names the classes.

    gram_rank is the rank r of the Gram factor the machines were solved
    through: the column count r < n of the kernel's feature map when the
    interior point went through it, n on the dense route (the active set,
    or the dense interior point where it falls back), and 0 for the
    gaussian kernel, whose machines pairwise ascent alone solves.
    describe() sums the machines' interior-point iterations and active-set
    rounds, so a dense fit with interior-point iterations had a machine
    fall back.
    """

    machines: list
    standardizer: nm.Standardizer
    gram_rank: int

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        coef = np.column_stack([m.alpha * m.y_train for m in self.machines])
        first = self.machines[0]
        k = first.kernel.gram(self.standardizer.apply(x), first.x_train)
        return k @ coef + np.array([m.bias for m in self.machines])

    def describe(self) -> dict:
        return {"kernel": self.machines[0].kernel.kind.value, "cost": DEFAULT_COST,
                "kkt_gap": max(m.kkt_gap for m in self.machines),
                "n_updates": sum(m.n_updates for m in self.machines),
                "ip_iterations": sum(m.ip_iterations for m in self.machines),
                "active_set_rounds": sum(m.active_set_rounds
                                         for m in self.machines),
                "gram_rank": self.gram_rank}


def fit_svm_multiclass(train: Dataset,
                       kernel: KernelSpec = KernelSpec()) -> SvmClassifier:
    """Train one machine per class against the rest on standardised rows.

    The kernel picks one route for every machine. A linear or polynomial
    kernel whose feature map has r < n columns for the n rows (linear, and
    polynomial with C(d + p, p) < n: with p = 3 at the study's n = 450,
    r = 35, 10, 20 and 10 on FS2, FS3, FS5 and FS6) gives K = GG' rank r
    at most, so K cannot have full rank. There the interior point on K
    solves every machine, its Newton systems going through G by the
    Sherman-Morrison-Woodbury identity in O(n r^2).

    Where r >= n (polynomial on FS1 and FS4, whose 969 and 816 monomials
    exceed the rows), K can have full rank, and the machines take the
    dense route: _active_set solves each machine from every index free,
    through one Cholesky of the free block K_FF per round, with no
    interior point. A machine falls back to the dense interior point, one
    O(n^3) Cholesky per iteration, unchanged, when a Cholesky of K_FF
    fails (as on repeated rows), a solve is not finite, the sets repeat
    (a cycle), or they still move after _AS_MAX_ROUNDS = 100 rounds. That
    cap is about twice the most rounds measured on those cells: at most 53
    over their 10 folds at cv seeds 0-2 (FS4, cv seed 2; CHANGES.md).
    fit_svm_binary then polishes either alpha by pairwise ascent at
    DEFAULT_KKT_TOL, which also checks it, and the machine records the
    iterations or rounds that found it.

    Gaussian machines take no start: fit_svm_binary solves them by
    pairwise ascent alone, from alpha = 0. Its second-order choice of the
    working pair converges for any positive semidefinite kernel (Fan, Chen and Lin,
    JMLR 6, 2005), and LIBSVM solves this kernel with it alone (Chang and
    Lin, ACM TIST 2(3), 2011). Measured on the study's panels, no gaussian
    machine needs more than 6,224 updates at n = 450, rows permuted or
    not, nor more than 15,481 at n = 900 and 1,800, against a cap of
    DEFAULT_MAX_UPDATES (CHANGES.md), so none needs a fallback. Every
    machine ends at DEFAULT_KKT_TOL or raises NoConvergence after
    DEFAULT_MAX_UPDATES updates.
    """
    check_training_set(train)
    standardizer = nm.standardizer_fit(train.x)
    x = standardizer.apply(train.x)
    kernel = kernel.resolve(train.d)
    gram = kernel.gram(x, x)
    gaussian = kernel.kind is SvmKernel.GAUSSIAN
    factor = None if gaussian else _kernel_factor(kernel, x)
    machines = []
    for j in range(train.n_classes):
        y = np.where(train.y == j, 1.0, -1.0)
        alpha, iterations, rounds = None, 0, 0
        if not gaussian and factor is None:
            try:
                alpha, rounds = _active_set(gram, y)
            except (NotPositiveDefinite, NoConvergence):
                pass
        if not gaussian and alpha is None:
            alpha, iterations = _interior_point(gram, y, factor)
        machines.append(replace(
            fit_svm_binary(x, y, kernel, gram=gram, alpha=alpha),
            ip_iterations=iterations, active_set_rounds=rounds))
    gram_rank = 0 if gaussian else train.n if factor is None else factor.shape[1]
    return SvmClassifier(machines=machines, standardizer=standardizer,
                         gram_rank=gram_rank)
