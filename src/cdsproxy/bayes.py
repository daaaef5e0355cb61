"""Generative classifiers: discriminant analysis and kernel naive Bayes.

All three families score a query as log prior plus a log class-conditional
density and classify by the maximum-a-posteriori rule. The linear variant
pools one covariance matrix over all training rows; the quadratic variant
estimates one per class; naive Bayes multiplies per-feature kernel density
estimates, i.e. assumes feature independence within a class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset, check_training_set, class_log_priors
from .errors import Setting, TooFewSamples, real_number

LOG_DENSITY_FLOOR = -745.0
DEFAULT_BANDWIDTH = 0.2


class KernelKind(Setting):
    """Smoothing kernels for the per-feature density estimates."""

    NORMAL = "normal"
    TRIANGULAR = "triangular"
    EPANECHNIKOV = "epanechnikov"


def _kernel_terms(kind: KernelKind, bandwidth: float, t: np.ndarray) -> np.ndarray:
    """Overwrite the differences t with the kernel's terms in the bandwidth's
    units, with no division: exp(t^2 * (-1 / (2 h^2))) for the normal
    kernel, max(h - |t|, 0) for the triangular and max(h^2 - t^2, 0) for
    the Epanechnikov. A compact kernel's term at |t| = h is exactly 0, and
    by Sterbenz's lemma h - |t| is exact wherever |t| is within a factor 2
    of h, where 1 - |t| / h first rounds the quotient."""
    h = bandwidth
    if kind is KernelKind.NORMAL:
        np.multiply(t, t, out=t)
        t *= -1.0 / (2.0 * h * h)
        return np.exp(t, out=t)
    if kind is KernelKind.TRIANGULAR:
        np.abs(t, out=t)
        np.subtract(h, t, out=t)
    else:
        np.multiply(t, t, out=t)
        np.subtract(h * h, t, out=t)
    return np.maximum(t, 0.0, out=t)


def _density_scale(kind: KernelKind, bandwidth: float, n: int) -> float:
    """The factor that turns a sum of n `_kernel_terms` into a unit-integral
    kernel density: 1 / (n h sqrt(2 pi)), 1 / (n h^2) or 3 / (4 n h^3)."""
    h = bandwidth
    if kind is KernelKind.NORMAL:
        return 1.0 / (n * h * math.sqrt(2.0 * math.pi))
    if kind is KernelKind.TRIANGULAR:
        return 1.0 / (n * h * h)
    return 3.0 / (4.0 * n * h * h * h)


@dataclass
class LdaClassifier(ClassifierModel):
    """Linear discriminant scores x'V^-1 mu_j - mu_j'V^-1 mu_j / 2 + log pi_j,
    one affine map: the means, the ridged covariance V and the log priors
    stay fit_lda's locals."""

    mode: nm.CovMode
    weights: np.ndarray          # (N, d) rows V^-1 mu_j
    offsets: np.ndarray          # (N,)
    class_names: tuple[str, ...]

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        return nm.as_rows(x, self.weights.shape[1]) @ self.weights.T + self.offsets

    def describe(self) -> dict:
        return {"kind": "linear", "mode": self.mode.value}


def fit_lda(train: Dataset, mode: nm.CovMode = nm.CovMode.FULL) -> LdaClassifier:
    """Fit linear discriminant analysis.

    The shared covariance is the sample covariance of *all* training rows
    (not the within-class pooled matrix), ridged before inversion.
    """
    check_training_set(train)
    mode = nm.CovMode(mode)
    log_priors = class_log_priors(train.y, train.n_classes)
    means = np.stack([train.x[train.y == j].mean(axis=0) for j in range(train.n_classes)])
    cov = nm.add_ridge(nm.sample_mean_covariance(train.x, mode)[1])
    weights = nm.solve_spd(cov, means.T, "shared covariance not invertible").T
    offsets = -0.5 * (weights * means).sum(axis=1) + log_priors
    return LdaClassifier(mode=mode, weights=weights, offsets=offsets,
                         class_names=train.class_names)


@dataclass
class QdaClassifier(ClassifierModel):
    """Quadratic discriminant with one ridged covariance matrix per class."""

    means: np.ndarray                  # (N, d)
    log_priors: np.ndarray             # (N,)
    mode: nm.CovMode
    chol_factors: np.ndarray           # (N, d, d) lower factors
    log_dets: np.ndarray               # (N,)
    class_names: tuple[str, ...]

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        n_classes, d = self.means.shape
        x = nm.as_rows(x, d)
        out = np.empty((x.shape[0], n_classes))
        # every class's (d x rows) differences of a block, solved as one stack
        for rows in nm.row_blocks(x.shape[0], 8 * n_classes * d):
            diff = (x[rows] - self.means[:, None, :]).transpose(0, 2, 1)
            z = np.linalg.solve(self.chol_factors, diff)
            mahal_sq = (z * z).sum(axis=1)
            out[rows] = (-0.5 * (self.log_dets[:, None] + mahal_sq)
                         + self.log_priors[:, None]).T
        return out

    def describe(self) -> dict:
        return {"kind": "quadratic", "mode": self.mode.value}


def fit_qda(train: Dataset, mode: nm.CovMode = nm.CovMode.FULL) -> QdaClassifier:
    """Fit quadratic discriminant analysis (class-specific covariances);
    the model keeps each ridged covariance only as its lower Cholesky
    factor and log determinant, all that its scores read."""
    check_training_set(train)
    mode = nm.CovMode(mode)
    log_priors = class_log_priors(train.y, train.n_classes)
    n_classes, d = train.n_classes, train.d
    means = np.empty((n_classes, d))
    chols = np.empty((n_classes, d, d))
    log_dets = np.empty(n_classes)
    for j in range(n_classes):
        rows = train.x[train.y == j]
        if rows.shape[0] < 2:
            raise TooFewSamples(f"class {j} has {rows.shape[0]} samples; need >= 2")
        means[j], cov = nm.sample_mean_covariance(rows, mode)
        chols[j] = nm.cholesky_spd(nm.add_ridge(cov), f"class {j} covariance not invertible")
        log_dets[j] = 2.0 * float(np.log(chols[j].diagonal()).sum())
    return QdaClassifier(means=means, log_priors=log_priors, mode=mode, chol_factors=chols,
                         log_dets=log_dets, class_names=train.class_names)


@dataclass
class NbClassifier(ClassifierModel):
    """Naive Bayes with per-feature kernel density estimates.

    Each class scores the queries in blocks whose kernel temporary holds at
    most numerics.BLOCK_BYTES (256 KB), or one query where a single query
    needs more. Per predict, each class's rows are tiled once along the
    query axis, (class rows, block queries x d), so that a block's
    differences t = query - row are one subtract whose inner loop runs over
    its queries x d flattened features. They land in one temporary, laid
    out as (class rows, queries, d), where each term is made in place in
    the bandwidth's units, with no division (`_kernel_terms`): a square or
    an abs, one multiply or reverse subtract by a constant, then exp or
    max(., 0). The terms are summed over the class rows, row after row in
    the order of the training rows, into a contiguous (queries x d) array;
    a lone feature's class rows are made contiguous first, so that numpy
    sums each of its columns pairwise instead. Only then are h and the
    kernel's constant applied, as one multiply of each (query, feature)
    sum by `_density_scale`. The floored logs of those densities are summed
    pairwise over the features and added to the class's log prior. No
    step depends on the block size, so neither does any score.
    """

    class_samples: list[np.ndarray]    # per class (n_j, d)
    kernel: KernelKind
    bandwidth: float
    log_priors: np.ndarray             # (N,)
    class_names: tuple[str, ...]

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        d = self.class_samples[0].shape[1]
        x = nm.as_rows(x, d)
        out = np.empty((x.shape[0], len(self.class_samples)))
        for j, samples in enumerate(self.class_samples):
            scale = _density_scale(self.kernel, self.bandwidth, len(samples))
            tiled = None
            for rows in nm.row_blocks(x.shape[0], samples.nbytes):
                block = x[rows]
                if tiled is None:  # the first block is the widest
                    tiled = np.tile(samples, (1, len(block)))
                t = np.subtract(block.ravel(), tiled[:, :block.size]).reshape(
                    len(samples), *block.shape)
                _kernel_terms(self.kernel, self.bandwidth, t)
                if d == 1:
                    t = np.ascontiguousarray(t.T).T
                dens = t.sum(axis=0)
                dens *= scale
                with np.errstate(divide="ignore"):
                    logs = np.maximum(np.log(dens), LOG_DENSITY_FLOOR)
                out[rows, j] = logs.sum(axis=1) + self.log_priors[j]
        return out

    def describe(self) -> dict:
        return {"kernel": self.kernel.value, "bandwidth": self.bandwidth}


def fit_nb(train: Dataset, kernel: KernelKind = KernelKind.NORMAL,
           bandwidth: float = DEFAULT_BANDWIDTH) -> NbClassifier:
    """Fit kernel naive Bayes, one bandwidth for every feature; BadConfig unless it is > 0."""
    check_training_set(train)
    bandwidth = real_number("bandwidth", bandwidth, 0.0)
    log_priors = class_log_priors(train.y, train.n_classes)
    samples = [train.x[train.y == j] for j in range(train.n_classes)]
    return NbClassifier(class_samples=samples, kernel=KernelKind(kernel),
                        bandwidth=bandwidth, log_priors=log_priors,
                        class_names=train.class_names)
