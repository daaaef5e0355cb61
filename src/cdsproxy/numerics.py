"""Dense numerical kernels used by the classifiers.

Everything here is written against small dimensions (d <= a few dozen):
unbiased covariance estimation, the symmetric eigendecomposition, Cholesky
factorisation and SPD solves (all three by numpy's LAPACK routines, behind
this module's NotSymmetric / NotPositiveDefinite / DimensionMismatch
checks), principal-component analysis and feature standardisation, plus
the query-row checks and the block slicing that the instance-based
classifiers (kNN, kernel naive Bayes) use to keep their temporaries small.
"""
from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadComponentCount,
    DimensionMismatch,
    FewerThanTwoSamples,
    NotPositiveDefinite,
    NotSymmetric,
)

RIDGE_FACTOR = 1e-8
BLOCK_BYTES = 1 << 18  # 256 KB: budget of one per-block scoring temporary


class CovMode(str, enum.Enum):
    """Covariance estimation mode: full matrix or diagonal only."""

    FULL = "full"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sample mean and unbiased (n-1) covariance of a set of row vectors."""

    mean: np.ndarray
    matrix: np.ndarray  # d x d; off-diagonal zero in DIAGONAL mode
    mode: CovMode
    count: int


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class PrincipalComponentBasis:
    """PCA basis: center, component columns and explained-variance profile."""

    center: np.ndarray
    components: np.ndarray        # d x d, column i = i-th component
    eigenvalues: np.ndarray       # descending, clipped at zero
    variance_explained: np.ndarray  # cumulative fractions, last ~ 1


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine map to zero mean and unit spread."""

    means: np.ndarray
    scales: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != self.means.shape:
            raise DimensionMismatch(
                f"rows of shape {x.shape} do not have {self.means.size} features")
        return (x - self.means) / self.scales


def as_rows(x: np.ndarray, d: int) -> np.ndarray:
    """Query rows as an (n, d) float array; DimensionMismatch for any other width."""
    q = np.atleast_2d(np.asarray(x, dtype=float))
    if q.ndim != 2 or q.shape[1] != d:
        raise DimensionMismatch(f"rows of shape {q.shape} do not have {d} features")
    return q


def row_blocks(n_rows: int, row_bytes: int) -> Iterator[slice]:
    """Consecutive slices covering range(n_rows), each holding as many rows as
    fit in BLOCK_BYTES at row_bytes per row, and at least one."""
    step = max(1, BLOCK_BYTES // max(1, row_bytes))
    return (slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step))


def _as_matrix(vectors: np.ndarray) -> np.ndarray:
    x = np.asarray(vectors, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d sample array, got ndim={x.ndim}")
    return x


def sample_mean_covariance(vectors: np.ndarray, mode: CovMode = CovMode.FULL) -> CovarianceEstimate:
    """Unbiased sample mean/covariance of row vectors.

    Raises FewerThanTwoSamples when n < 2 (the n-1 denominator needs two rows).
    """
    x = _as_matrix(vectors)
    n, d = x.shape
    if n < 2:
        raise FewerThanTwoSamples(f"covariance needs >= 2 samples, got {n}")
    mode = CovMode(mode)
    mean = x.mean(axis=0)
    centered = x - mean
    if mode is CovMode.FULL:
        matrix = centered.T @ centered / (n - 1)
        matrix = 0.5 * (matrix + matrix.T)
    else:
        matrix = np.diag((centered * centered).sum(axis=0) / (n - 1))
    return CovarianceEstimate(mean=mean, matrix=matrix, mode=mode, count=n)


def ridge_value(matrix: np.ndarray) -> float:
    """Diagonal ridge proportional to the mean eigenvalue: 1e-8 * trace/d."""
    m = np.asarray(matrix, dtype=float)
    d = m.shape[0]
    return RIDGE_FACTOR * float(np.trace(m)) / d


def add_ridge(matrix: np.ndarray) -> np.ndarray:
    """Return matrix + ridge_value(matrix) * I."""
    m = np.array(matrix, dtype=float, copy=True)
    m[np.diag_indices_from(m)] += ridge_value(m)
    return m


def _check_symmetric(matrix: np.ndarray) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.abs(a).max()) if a.size else 0.0
    if not np.all(np.abs(a - a.T) <= 1e-10 * (1.0 + scale)):
        raise NotSymmetric("matrix is not symmetric")
    return a


def eigen_symmetric(matrix: np.ndarray) -> EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of a symmetric matrix."""
    values, vectors = np.linalg.eigh(_check_symmetric(matrix))
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def cholesky_spd(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix; NotPositiveDefinite otherwise."""
    a = _check_symmetric(matrix)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc


def solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = b for SPD A via Cholesky. Callers ridge A beforehand."""
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix order {a.shape[0]}")
    lower = cholesky_spd(a)
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))


def pca_fit(vectors: np.ndarray) -> PrincipalComponentBasis:
    """Principal components of row vectors, ordered by descending variance.

    Sign convention: the largest-magnitude entry of each component is
    positive. variance_explained holds cumulative eigenvalue fractions.
    """
    x = _as_matrix(vectors)
    est = sample_mean_covariance(x, CovMode.FULL)
    eig = eigen_symmetric(est.matrix)
    order = np.argsort(-eig.eigenvalues, kind="stable")
    values = np.clip(eig.eigenvalues[order], 0.0, None)
    components = eig.eigenvectors[:, order]
    anchors = np.argmax(np.abs(components), axis=0)
    flip = components[anchors, np.arange(components.shape[1])] < 0.0
    components = np.where(flip, -components, components)
    total = float(values.sum())
    if total > 0.0:
        explained = np.cumsum(values) / total
    else:
        explained = np.ones_like(values)
    return PrincipalComponentBasis(center=est.mean, components=components,
                                   eigenvalues=values, variance_explained=explained)


def pca_transform(basis: PrincipalComponentBasis, x: np.ndarray, m: int) -> np.ndarray:
    """Coordinates of x (a vector or rows) on the first m components."""
    d = basis.components.shape[0]
    if not 1 <= int(m) <= d:
        raise BadComponentCount(f"component count {m} outside 1..{d}")
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1] != d:
        raise DimensionMismatch(f"vector length {arr.shape[-1]} != basis dimension {d}")
    return (arr - basis.center) @ basis.components[:, :int(m)]


SCALE_FLOOR = 1e-12


def standardizer_fit(vectors: np.ndarray) -> Standardizer:
    """Fit per-feature means and (n-1) standard deviations, clamped below."""
    x = _as_matrix(vectors)
    if x.shape[0] < 2:
        raise FewerThanTwoSamples(f"standardizer needs >= 2 samples, got {x.shape[0]}")
    means = x.mean(axis=0)
    centered = x - means
    scales = np.sqrt((centered * centered).sum(axis=0) / (x.shape[0] - 1))
    return Standardizer(means=means, scales=np.maximum(scales, SCALE_FLOOR))
