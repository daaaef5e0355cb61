"""Soft-margin kernel support vector machines.

The binary machine maximises the usual dual

    W(alpha) = sum_i alpha_i - 1/2 sum_ij alpha_i alpha_j y_i y_j k(x_i, x_j)

subject to 0 <= alpha_i <= C and sum_i alpha_i y_i = 0, by pairwise
coordinate ascent: the first index of each working pair is the steepest
feasible ascent direction, the second maximises the second-order gain, the
pair is solved in closed form and clipped to the box. The multiclass model
is one-vs-one: one machine per pair of classes, trained on that pair's rows
alone and standardised on them (which lifts SVM-Gaussian's study accuracy
from 0.621 with fold-wide standardisation to 0.731), and a query's score
for each class is minus its mean hinge loss over the class's machines.

The kernel and the pair's rows pick each machine's start solver, one of
three routes (SvmRoute). A gaussian machine has none. A linear or
polynomial machine whose kernel has an exact feature map G of r < n
columns, for the pair's n rows, is solved by a Mehrotra predictor-corrector
interior-point method (Mehrotra, SIAM J. Optim. 2(4), 1992) through G:
there K = GG' cannot have full rank. Otherwise K can have full rank, and a
primal-dual active-set iteration on K solves the machine. Every machine
then ends in fit_svm_binary's ascent, which polishes that alpha, or starts
from alpha = 0 for a gaussian machine or one whose start solver failed,
and checks its KKT conditions. fit_svm_multiclass states that policy.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset, check_training_set, class_counts
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
_AS_MAX_ROUNDS = 100       # active-set rounds before the ascent from 0 takes over


class SvmKernel(Setting):
    LINEAR = "linear"
    GAUSSIAN = "gaussian"
    POLYNOMIAL = "polynomial"


class SvmRoute(Setting):
    """The solver that finds a machine's start for the ascent's polish."""

    ASCENT = "ascent"                  # none: the ascent from alpha = 0
    FEATURE_MAP_IP = "feature_map_ip"  # the interior point through G
    ACTIVE_SET = "active_set"          # the dense active set


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
            # repeated products, not **, which numpy leaves to the C pow()
            # for a degree above 2, about 70 times as slow per entry
            base = 1.0 + x @ y.T
            power = base.copy()
            for _ in range(self.degree - 1):
                power *= base
            return power
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
    route: SvmRoute = SvmRoute.ASCENT   # the solver that found the start

def fit_svm_binary(x: np.ndarray, y: np.ndarray, kernel: KernelSpec,
                   gram: np.ndarray | None = None,
                   alpha: np.ndarray | None = None) -> BinarySvm:
    """Solve the soft-margin dual with C = DEFAULT_COST by second-order
    pairwise ascent from a feasible alpha, or from 0, until the maximal KKT
    violation is at most DEFAULT_KKT_TOL.

    gram, the rows' Gram matrix, saves making again the one a start's
    solver used. alpha, another solver's point, is finished and checked;
    a float array is updated in place, as LIBSVM's solver updates its
    start.
    Raises DimensionMismatch when y, gram or alpha does not match the rows,
    BadConfig when alpha leaves [0, C] or |y'alpha| > 1e-9 C n, and
    NoConvergence at DEFAULT_MAX_UPDATES updates, or when the gap is not
    finite (as on a Gram matrix that is not).

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
        # is 0 off the candidates and positive on them, and the gap > tol
        # > 0 is a candidate's b, so the arg-max is a candidate
        np.add(k_diag, k_diag.item(i), out=a_vec)
        np.multiply(k_mat[i], 2.0, out=term)
        np.subtract(a_vec, term, out=a_vec)
        np.maximum(a_vec, _TAU, out=a_vec)
        np.maximum(b_vec, 0.0, out=gain)
        np.multiply(gain, gain, out=gain)
        np.divide(gain, a_vec, out=gain)
        j = int(gain.argmax())
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
                    factor: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve the dual with C = DEFAULT_COST by Mehrotra's predictor-corrector
    interior-point method through a factor G, GG' = k_mat, of r < n
    columns; return alpha on the box with |y'alpha| <= 1e-12 C n, and the
    iterations.

    Minimises 1/2 a'Qa - sum a, Q = yy' * K, with slacks s = C - a and
    multipliers z of a >= 0, w of a <= C and b of y'a = 0, all of a, s, z,
    w kept positive. Each direction solves (Q + D) [u, v] = [g, y] for
    D = diag(z/a + w/s), as (K + D) [y*u, y*v] = [y*g, 1], which rounds
    to the same u and v as y = +-1, and takes db = (y'u + y'a) / y'v,
    da = u - v db, so the step toward y'a = 0 is eliminated in closed
    form. The solves go through the Sherman-Morrison-Woodbury identity on
    the scaled P = D^-1/2 G, (K + D)^-1 = D^-1/2 (I - P (I + P'P)^-1 P')
    D^-1/2 (Fine and Scheinberg, JMLR 2, 2001; Ferris and Munson, SIAM J.
    Optim. 13(3), 2002): the predictor and the corrector share the r x r
    matrix I + P'P, formed once per iteration, but each solve's
    np.linalg.solve LU-factors it anew. k_mat is only read, for the
    residuals and so the stop test. At the end every alpha within
    _SNAP * C of a bound goes onto it, and y'alpha = 0 is restored by one
    equal shift of the free alphas along y, clipped back into the box;
    1e-12 C n is well inside the 1e-9 C n fit_svm_binary accepts of a
    start (on the study's grid the largest |y'alpha| left is 1.5e-17 n).
    Raises NoConvergence if _IP_MAX_ITERATIONS pass first, or if the clip
    leaves |y'alpha| above 1e-12 C n.
    """
    n, cost = y.size, DEFAULT_COST
    # the dual residual is measured against the size of its terms, as
    # |K_ij| <= max_i K_ii for a positive semidefinite K, so that rounding
    # in Q alpha at large n or large kernel values cannot hold it above tol
    r_scale = 1.0 + cost * float(k_mat.diagonal().max())
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
        scale = (1.0 / np.sqrt(z / alpha + w / s))[:, None]
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
    free = ~(at_zero | at_cost)
    if free.any():
        alpha[free] -= y[free] * (float(y @ alpha) / np.count_nonzero(free))
    np.clip(alpha, 0.0, cost, out=alpha)
    if abs(float(y @ alpha)) > 1e-12 * cost * n:
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
    no index is left free, the sets repeat, or they still move after
    _AS_MAX_ROUNDS rounds; fit_svm_binary checks the alpha it returns, as
    it checks any start.
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
        alpha = y * beta
        grad = y * (k_mat @ beta + b) - 1.0
        below, above = free & (alpha < 0.0), free & (alpha > cost)
        freed = np.where(at_cost, grad > 0.0, ~free & (grad < 0.0))
        if not (below.any() or above.any() or freed.any()):
            return alpha, rounds
        free = (free & ~below & ~above) | freed
        at_cost = (at_cost & ~freed) | above


def _fit_machine(x: np.ndarray, y: np.ndarray, kernel: KernelSpec) -> BinarySvm:
    """One pair machine on its standardised rows, by the route its kernel
    and rows pick (fit_svm_multiclass states the policy)."""
    if kernel.kind is SvmKernel.GAUSSIAN:
        return fit_svm_binary(x, y, kernel)
    gram = kernel.gram(x, x)
    factor = _kernel_factor(kernel, x)
    iterations = rounds = 0
    try:
        if factor is None:
            route = SvmRoute.ACTIVE_SET
            alpha, rounds = _active_set(gram, y)
        else:
            route = SvmRoute.FEATURE_MAP_IP
            alpha, iterations = _interior_point(gram, y, factor)
    except (NotPositiveDefinite, NoConvergence):
        return fit_svm_binary(x, y, kernel, gram=gram)
    return replace(fit_svm_binary(x, y, kernel, gram=gram, alpha=alpha),
                   ip_iterations=iterations, active_set_rounds=rounds,
                   route=route)


@dataclass
class SvmClassifier(ClassifierModel):
    """One-vs-one machines, machine m for the m-th class pair (a, b), a < b,
    in itertools.combinations order, with class a as +1. Each machine
    keeps the standardisation of its own pair's rows, standardizers[m],
    since a fold-wide one cut SVM-Gaussian's study accuracy from 0.731 to
    0.621 (fit_svm_multiclass). It scores a query q, standardised by
    standardizers[m], with one kernel product over its rows,
    f = k(q, x_train) (alpha * y_train) + bias. The score of class c is
    minus its mean hinge loss over its K - 1 machines:
    max(0, 1 - f) for class a and max(0, 1 + f) for class b (Allwein,
    Schapire and Singer, JMLR 1, 2000), so the arg-max is the class with
    the least loss.

    describe() counts the machines by the route that found their start
    (SvmRoute) and sums their interior-point iterations and active-set
    rounds.
    """

    machines: list
    standardizers: list
    n_classes: int

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        x = nm.as_rows(x, self.standardizers[0].means.size)
        losses = np.zeros((x.shape[0], self.n_classes))
        pairs = itertools.combinations(range(self.n_classes), 2)
        for (a, b), machine, standardizer in zip(pairs, self.machines,
                                                 self.standardizers):
            k = machine.kernel.gram(standardizer.apply(x), machine.x_train)
            f = k @ (machine.alpha * machine.y_train) + machine.bias
            losses[:, a] += np.maximum(0.0, 1.0 - f)
            losses[:, b] += np.maximum(0.0, 1.0 + f)
        return -losses / (self.n_classes - 1)

    def describe(self) -> dict:
        return {"kernel": self.machines[0].kernel.kind.value, "cost": DEFAULT_COST,
                "kkt_gap": max(m.kkt_gap for m in self.machines),
                "n_updates": sum(m.n_updates for m in self.machines),
                "ip_iterations": sum(m.ip_iterations for m in self.machines),
                "active_set_rounds": sum(m.active_set_rounds
                                         for m in self.machines),
                "routes": {route.value: sum(m.route is route for m in self.machines)
                           for route in SvmRoute}}


def fit_svm_multiclass(train: Dataset,
                       kernel: KernelSpec = KernelSpec()) -> SvmClassifier:
    """Train one machine per class pair (a, b), a < b, on that pair's rows
    alone, with class a as +1 (one-vs-one, as LIBSVM and MATLAB's fitcecoc
    train: Hsu and Lin, IEEE TNN 13(2), 2002). Raises EmptyClass when a
    class has no training rows.

    Each pair is standardised on its own rows, not on the fold's. Measured
    on the study's grid (GeneratorConfig(), cv seed 0), SVM-Gaussian
    reaches an accuracy of 0.731 this way, against 0.621 with one
    fold-wide standardisation (CHANGES.md). The gaussian scale resolves
    from d once, for every machine.

    The kernel and the pair's n rows pick the machine's start solver, its
    route (SvmRoute):
    - gaussian: none, the ascent alone, as LIBSVM solves that kernel
      (Chang and Lin, ACM TIST 2(3), 2011); no gaussian pair machine of
      the study needs more than 305 updates at cv seeds 0-2;
    - linear or polynomial with a feature map of r < n columns (linear,
      and polynomial with C(d + p, p) < n: with p = 3 at the study's
      n = 180 rows per pair, r = 35, 10, 20 and 10 on FS2, FS3, FS5 and
      FS6): K = GG' has rank r at most, so K cannot have full rank, and
      the interior point solves the machine, its Newton systems going
      through G by the Sherman-Morrison-Woodbury identity in O(n r^2);
    - otherwise (polynomial on FS1 and FS4, whose 969 and 816 monomials
      exceed the rows): K can have full rank, and _active_set solves the
      machine from every index free, through one Cholesky of the free
      block K_FF per round.
    fit_svm_binary then polishes that alpha by pairwise ascent at
    DEFAULT_KKT_TOL, which also checks it, and the machine records the
    iterations or rounds that found it.

    One fallback serves both start solvers. Where the solver raises
    NotPositiveDefinite or NoConvergence, the machine takes no start, as a
    gaussian machine takes none: fit_svm_binary solves it by pairwise
    ascent from alpha = 0, at the same DEFAULT_KKT_TOL and
    DEFAULT_MAX_UPDATES, and its route is the ascent. The active set fails
    when a Cholesky of K_FF fails (as on repeated rows), no index is left
    free, the sets repeat (a cycle), or they still move after
    _AS_MAX_ROUNDS = 100 rounds, against at most 23 rounds measured over
    the study's 10 folds at cv seeds 0-2 (CHANGES.md). The interior point
    fails when it stops at _IP_MAX_ITERATIONS or its clip to the box
    leaves |y'alpha| above 1e-12 C n. One machine of the study's grid
    falls back, SVM-Linear's pair (1, 3) on FS1 fold 7 at cv seed 0, whose
    interior point stalls: its dual and equality residuals reach rounding
    level while mu / C swings between 9.2e-8 and 2.6e-8, above _IP_TOL,
    and the ascent solves it in 649 updates. The ascent's second-order
    choice of the working pair converges for any positive semidefinite
    kernel (Fan, Chen and Lin, JMLR 6, 2005). Every machine ends at
    DEFAULT_KKT_TOL or raises NoConvergence.
    """
    check_training_set(train)
    kernel = kernel.resolve(train.d)
    class_counts(train.y, train.n_classes)
    machines, standardizers = [], []
    for a, b in itertools.combinations(range(train.n_classes), 2):
        rows = (train.y == a) | (train.y == b)
        y = np.where(train.y[rows] == a, 1.0, -1.0)
        standardizer = nm.standardizer_fit(train.x[rows])
        machines.append(_fit_machine(standardizer.apply(train.x[rows]), y, kernel))
        standardizers.append(standardizer)
    return SvmClassifier(machines=machines, standardizers=standardizers,
                         n_classes=train.n_classes)
