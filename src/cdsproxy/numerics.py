"""Dense numerical kernels used by the classifiers.

Unbiased covariance estimation, the symmetric eigendecomposition, Cholesky
factorisation and SPD solves (all three by numpy's LAPACK routines, behind
this module's NotSymmetric / NotPositiveDefinite / DimensionMismatch
checks; a failed factorisation names its matrix by the caller's phrase),
principal-component analysis and feature standardisation, plus
the query-row checks and the block slicing that the instance-based
classifiers (kNN, kernel naive Bayes) use to keep their temporaries small.
The classifiers call most of these on d x d matrices, d <= a few dozen;
spd_solver also serves the SVM active set's K_FF blocks over its free
indices. No caller solves more than once per factor.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConfig,
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    SchemaViolation,
    Setting,
    TooFewSamples,
    positive_integer,
)

RIDGE_FACTOR = 1e-8
BLOCK_BYTES = 1 << 18  # 256 KB: budget of one per-block scoring temporary
_SOLVE_BLOCK = 32      # rows per diagonal block of spd_solver's substitutions


class CovMode(Setting):
    """Covariance estimation mode: full matrix or diagonal only."""

    FULL = "full"
    DIAGONAL = "diagonal"


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
        """x standardised as an (n, d) array, checked as as_rows checks
        query rows."""
        return (as_rows(x, self.means.size) - self.means) / self.scales


def as_rows(x: np.ndarray, d: int) -> np.ndarray:
    """Query rows as an (n, d) float array; DimensionMismatch for any other
    width, SchemaViolation naming the first row and column that is NaN or
    infinite."""
    q = np.atleast_2d(np.asarray(x, dtype=float))
    if q.ndim != 2 or q.shape[1] != d:
        raise DimensionMismatch(f"rows of shape {q.shape} do not have {d} features")
    if not np.isfinite(q).all():
        row, column = np.argwhere(~np.isfinite(q))[0]
        raise SchemaViolation(
            f"query features must be finite: row {row}, column {column} is {q[row, column]}")
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


def sample_mean_covariance(vectors: np.ndarray,
                           mode: CovMode = CovMode.FULL) -> tuple[np.ndarray, np.ndarray]:
    """(mean, matrix) of row vectors: the sample mean and the unbiased (n-1)
    d x d covariance, off-diagonal zero in DIAGONAL mode. Raises
    TooFewSamples when n < 2 (the n-1 denominator needs two rows)."""
    x = _as_matrix(vectors)
    n, d = x.shape
    if n < 2:
        raise TooFewSamples(f"covariance needs >= 2 samples, got {n}")
    mode = CovMode(mode)
    mean = x.mean(axis=0)
    centered = x - mean
    if mode is CovMode.FULL:
        matrix = centered.T @ centered / (n - 1)
        matrix = 0.5 * (matrix + matrix.T)
    else:
        matrix = np.diag((centered * centered).sum(axis=0) / (n - 1))
    return mean, matrix


def add_ridge(matrix: np.ndarray) -> np.ndarray:
    """Return matrix + r * I, with the ridge r = 1e-8 * trace/d proportional
    to the mean eigenvalue."""
    m = np.array(matrix, dtype=float, copy=True)
    m[np.diag_indices_from(m)] += RIDGE_FACTOR * float(np.trace(m)) / m.shape[0]
    return m


def _check_symmetric(matrix: np.ndarray) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.abs(a).max()) if a.size else 0.0
    if not np.all(np.abs(a - a.T) <= 1e-10 * (1.0 + scale)):
        raise NotSymmetric("matrix is not symmetric")
    return a


def eigen_symmetric(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's eigh of a symmetric matrix: (ascending eigenvalues, eigenvector columns)."""
    return np.linalg.eigh(_check_symmetric(matrix))


def _lower_factor(matrix: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{what}: matrix is not positive definite: {exc}") from exc


def cholesky_spd(matrix: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix; NotPositiveDefinite led by what."""
    return _lower_factor(_check_symmetric(matrix), what)


def spd_solver(matrix: np.ndarray, what: str) -> Callable[[np.ndarray], np.ndarray]:
    """Factor A = LL' once and return a function solving A x = b for a
    vector or matrix b; NotPositiveDefinite led by what if that fails.
    LAPACK reads only A's lower triangle; A is not checked for symmetry.
    numpy has no triangular solve, so the diagonal blocks of L are inverted
    once, and each solve substitutes block by block through matmuls. The
    inverses pay only where one factor serves many solves, but no caller
    solves more than once per factor: solve_spd solves once, and the SVM
    active set once per round, for its two right-hand sides together.
    """
    lower = _lower_factor(matrix, what)
    n = lower.shape[0]
    blocks = [slice(i, min(i + _SOLVE_BLOCK, n)) for i in range(0, n, _SOLVE_BLOCK)]
    inverses = [np.linalg.inv(lower[k, k]) for k in blocks]

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = np.array(rhs, dtype=float)
        for k, inverse in zip(blocks, inverses):
            if k.start:
                x[k] -= lower[k, :k.start] @ x[:k.start]
            x[k] = inverse @ x[k]
        for k, inverse in zip(reversed(blocks), reversed(inverses)):
            if k.stop < n:
                x[k] -= lower[k.stop:, k].T @ x[k.stop:]
            x[k] = inverse.T @ x[k]
        return x

    return solve


def solve_spd(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve A x = b for SPD A as spd_solver does. Callers ridge A beforehand."""
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix order {a.shape[0]}")
    return spd_solver(_check_symmetric(a), what)(b)


def pca_fit(vectors: np.ndarray) -> PrincipalComponentBasis:
    """Principal components of row vectors, ordered by descending variance.

    Sign convention: the largest-magnitude entry of each component is
    positive. variance_explained holds cumulative eigenvalue fractions.
    """
    center, covariance = sample_mean_covariance(vectors)
    eigenvalues, eigenvectors = eigen_symmetric(covariance)
    order = np.argsort(-eigenvalues, kind="stable")
    values = np.clip(eigenvalues[order], 0.0, None)
    components = eigenvectors[:, order]
    anchors = np.argmax(np.abs(components), axis=0)
    flip = components[anchors, np.arange(components.shape[1])] < 0.0
    components = np.where(flip, -components, components)
    total = float(values.sum())
    explained = np.cumsum(values) / total if total > 0.0 else np.ones_like(values)
    return PrincipalComponentBasis(center=center, components=components,
                                   eigenvalues=values, variance_explained=explained)


def pca_transform(basis: PrincipalComponentBasis, x: np.ndarray, m: int) -> np.ndarray:
    """Coordinates of x (a vector or rows) on the first m components."""
    d = basis.components.shape[0]
    m = positive_integer("component count", m)
    if m > d:
        raise BadConfig(f"component count {m} outside 1..{d}")
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1] != d:
        raise DimensionMismatch(f"vector length {arr.shape[-1]} != basis dimension {d}")
    return (arr - basis.center) @ basis.components[:, :m]


SCALE_FLOOR = 1e-12


def standardizer_fit(vectors: np.ndarray) -> Standardizer:
    """Fit per-feature means and (n-1) standard deviations, clamped below."""
    x = _as_matrix(vectors)
    if x.shape[0] < 2:
        raise TooFewSamples(f"standardizer needs >= 2 samples, got {x.shape[0]}")
    means = x.mean(axis=0)
    centered = x - means
    scales = np.sqrt((centered * centered).sum(axis=0) / (x.shape[0] - 1))
    return Standardizer(means=means, scales=np.maximum(scales, SCALE_FLOOR))
