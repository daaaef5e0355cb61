"""Generative classifiers: discriminant analysis and kernel naive Bayes.

All three families score a query as log prior plus a log class-conditional
density and classify by the maximum-a-posteriori rule. The linear variant
pools one covariance matrix over all training rows; the quadratic variant
estimates one per class; naive Bayes multiplies per-feature kernel density
estimates, i.e. assumes feature independence within a class.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, ClassPriors, Dataset, class_priors
from .errors import (
    ClassTooSmall,
    EmptySample,
    EmptyTrainingSet,
    NonpositiveBandwidth,
    NotPositiveDefinite,
    SingleClassInput,
    SingularCovariance,
)

LOG_DENSITY_FLOOR = -745.0
DEFAULT_BANDWIDTH = 0.2


class KernelKind(str, enum.Enum):
    """Smoothing kernels for the per-feature density estimates."""

    NORMAL = "normal"
    TRIANGULAR = "triangular"
    EPANECHNIKOV = "epanechnikov"


def kernel_values(kind: KernelKind, u: np.ndarray) -> np.ndarray:
    """Evaluate a unit-integral kernel at scaled distances u."""
    u = np.asarray(u, dtype=float)
    kind = KernelKind(kind)
    if kind is KernelKind.NORMAL:
        return np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    if kind is KernelKind.TRIANGULAR:
        return np.maximum(0.0, 1.0 - np.abs(u))
    return 0.75 * np.maximum(0.0, 1.0 - u * u)


def kde_log_density(samples: np.ndarray, kernel: KernelKind, bandwidth: float,
                    x) -> np.ndarray | float:
    """Log of the kernel density estimate (1/(n b)) sum K((x - x_i)/b).

    Floored at LOG_DENSITY_FLOOR so empty kernel support cannot produce
    -inf. x may be a scalar or an array; the result matches its shape.
    """
    samples = np.asarray(samples, dtype=float).reshape(-1)
    if samples.size == 0:
        raise EmptySample("kernel density estimate needs at least one sample")
    if not bandwidth > 0.0:
        raise NonpositiveBandwidth(f"bandwidth must be > 0, got {bandwidth}")
    arr = np.asarray(x, dtype=float)
    u = (arr[..., None] - samples) / bandwidth
    dens = kernel_values(kernel, u).mean(axis=-1) / bandwidth
    with np.errstate(divide="ignore"):
        out = np.maximum(np.log(dens), LOG_DENSITY_FLOOR)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _validate_train(train: Dataset) -> None:
    if train.n == 0:
        raise EmptyTrainingSet("cannot fit on zero samples")
    if np.unique(train.y).size < 2:
        raise SingleClassInput("training data holds a single class")


@dataclass
class LdaClassifier(ClassifierModel):
    """Linear discriminant scores x'V^-1 mu_j - mu_j'V^-1 mu_j / 2 + log pi_j."""

    family = "DA"
    means: np.ndarray            # (N, d)
    covariance: np.ndarray       # ridged, shared by all classes
    priors: ClassPriors
    mode: nm.CovMode
    weights: np.ndarray          # (N, d) rows V^-1 mu_j
    offsets: np.ndarray          # (N,)
    class_names: tuple[str, ...]

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        return nm.as_rows(x, self.weights.shape[1]) @ self.weights.T + self.offsets

    def describe(self) -> dict:
        return {"family": self.family, "kind": "linear", "mode": self.mode.value}


def fit_lda(train: Dataset, mode: nm.CovMode = nm.CovMode.FULL,
            uniform_priors: bool = False) -> LdaClassifier:
    """Fit linear discriminant analysis.

    The shared covariance is the sample covariance of *all* training rows
    (not the within-class pooled matrix), ridged before inversion.
    """
    _validate_train(train)
    mode = nm.CovMode(mode)
    priors = class_priors(train.y, train.n_classes, uniform=uniform_priors)
    means = np.stack([train.x[train.y == j].mean(axis=0) for j in range(train.n_classes)])
    cov = nm.add_ridge(nm.sample_mean_covariance(train.x, mode).matrix)
    try:
        weights = nm.solve_spd(cov, means.T).T
    except NotPositiveDefinite as exc:
        raise SingularCovariance(f"shared covariance not invertible: {exc}") from exc
    offsets = -0.5 * (weights * means).sum(axis=1) + priors.log_pi
    return LdaClassifier(means=means, covariance=cov, priors=priors, mode=mode,
                         weights=weights, offsets=offsets,
                         class_names=train.class_names)


@dataclass
class QdaClassifier(ClassifierModel):
    """Quadratic discriminant with one ridged covariance matrix per class."""

    family = "DA"
    means: np.ndarray                  # (N, d)
    covariances: np.ndarray            # (N, d, d), ridged
    priors: ClassPriors
    mode: nm.CovMode
    chol_factors: np.ndarray           # (N, d, d) lower factors
    log_dets: np.ndarray               # (N,)
    class_names: tuple[str, ...]

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        x = nm.as_rows(x, self.means.shape[1])
        n_classes = self.means.shape[0]
        out = np.empty((x.shape[0], n_classes))
        for j in range(n_classes):
            diff = (x - self.means[j]).T
            z = np.linalg.solve(self.chol_factors[j], diff)
            mahal_sq = (z * z).sum(axis=0)
            out[:, j] = -0.5 * (self.log_dets[j] + mahal_sq) + self.priors.log_pi[j]
        return out

    def describe(self) -> dict:
        return {"family": self.family, "kind": "quadratic", "mode": self.mode.value}


def fit_qda(train: Dataset, mode: nm.CovMode = nm.CovMode.FULL,
            uniform_priors: bool = False) -> QdaClassifier:
    """Fit quadratic discriminant analysis (class-specific covariances)."""
    _validate_train(train)
    mode = nm.CovMode(mode)
    priors = class_priors(train.y, train.n_classes, uniform=uniform_priors)
    n_classes, d = train.n_classes, train.d
    means = np.empty((n_classes, d))
    covs = np.empty((n_classes, d, d))
    chols = np.empty((n_classes, d, d))
    log_dets = np.empty(n_classes)
    for j in range(n_classes):
        rows = train.x[train.y == j]
        if rows.shape[0] < 2:
            raise ClassTooSmall(f"class {j} has {rows.shape[0]} samples; need >= 2")
        est = nm.sample_mean_covariance(rows, mode)
        means[j] = est.mean
        covs[j] = nm.add_ridge(est.matrix)
        try:
            chols[j] = nm.cholesky_spd(covs[j])
        except NotPositiveDefinite as exc:
            raise SingularCovariance(f"class {j} covariance not invertible: {exc}") from exc
        log_dets[j] = 2.0 * float(np.log(chols[j].diagonal()).sum())
    return QdaClassifier(means=means, covariances=covs, priors=priors, mode=mode,
                         chol_factors=chols, log_dets=log_dets,
                         class_names=train.class_names)


@dataclass
class NbClassifier(ClassifierModel):
    """Naive Bayes with per-feature kernel density estimates.

    Each class scores the queries in blocks whose (queries x class rows x d)
    kernel temporaries hold at most numerics.BLOCK_BYTES (256 KB) each, or
    one query where a single query needs more.
    """

    family = "NB"
    class_samples: list[np.ndarray]    # per class (n_j, d)
    kernel: KernelKind
    bandwidth: float
    priors: ClassPriors
    class_names: tuple[str, ...]

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        x = nm.as_rows(x, self.class_samples[0].shape[1])
        out = np.empty((x.shape[0], len(self.class_samples)))
        for j, samples in enumerate(self.class_samples):
            for rows in nm.row_blocks(x.shape[0], samples.nbytes):
                u = (x[rows, None, :] - samples[None, :, :]) / self.bandwidth
                dens = kernel_values(self.kernel, u).mean(axis=1) / self.bandwidth
                with np.errstate(divide="ignore"):
                    logs = np.maximum(np.log(dens), LOG_DENSITY_FLOOR)
                out[rows, j] = logs.sum(axis=1) + self.priors.log_pi[j]
        return out

    def describe(self) -> dict:
        return {"family": self.family, "kernel": self.kernel.value,
                "bandwidth": self.bandwidth}


def fit_nb(train: Dataset, kernel: KernelKind = KernelKind.NORMAL,
           bandwidth: float = DEFAULT_BANDWIDTH,
           uniform_priors: bool = False) -> NbClassifier:
    """Fit kernel naive Bayes; the same bandwidth is used for every feature."""
    _validate_train(train)
    if not bandwidth > 0.0:
        raise NonpositiveBandwidth(f"bandwidth must be > 0, got {bandwidth}")
    priors = class_priors(train.y, train.n_classes, uniform=uniform_priors)
    samples = [train.x[train.y == j].copy() for j in range(train.n_classes)]
    return NbClassifier(class_samples=samples, kernel=KernelKind(kernel),
                        bandwidth=float(bandwidth), priors=priors,
                        class_names=train.class_names)
