"""k-nearest-neighbour classification under three metrics.

Distances: Euclidean, city-block, and Mahalanobis with the (ridged) full
covariance of the training rows. Euclidean and city-block variants work on
standardised features by default; the Mahalanobis variant is scale
invariant and always uses raw features: the fit whitens the training rows
once with the covariance's Cholesky factor L (rows L^-1 x), each predict
whitens its queries the same way, and the Euclidean distance between
whitened rows is the Mahalanobis distance. Queries are scored in blocks
sized by numerics.BLOCK_BYTES, so a predict's memory does not grow with
queries x training rows. Class scores are the vote counts among the k
nearest neighbours; distance ties resolve to the lower training index,
label ties to the lower class index.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset
from .errors import BadK, EmptyTrainingSet, NotPositiveDefinite, SingularCovariance

DEFAULT_K = 9


class Metric(str, enum.Enum):
    EUCLIDEAN = "euclidean"
    CITYBLOCK = "cityblock"
    MAHALANOBIS = "mahalanobis"


def distance(metric: Metric, x: np.ndarray, y: np.ndarray,
             chol_factor: np.ndarray | None = None) -> float:
    """Distance between two vectors; Mahalanobis needs a Cholesky factor."""
    metric = Metric(metric)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if metric is Metric.EUCLIDEAN:
        diff = x - y
        return float(np.sqrt((diff * diff).sum()))
    if metric is Metric.CITYBLOCK:
        return float(np.abs(x - y).sum())
    if chol_factor is None:
        raise SingularCovariance("Mahalanobis distance needs a covariance factor")
    z = np.linalg.solve(chol_factor, x - y)
    return float(np.sqrt((z * z).sum()))


@dataclass
class KnnClassifier(ClassifierModel):
    """Lazy nearest-neighbour model; stores the standardised, whitened or raw rows."""

    family = "KNN"
    k: int
    metric: Metric
    x_train: np.ndarray          # standardised, whitened (Mahalanobis) or raw rows
    y_train: np.ndarray
    n_classes: int
    class_names: tuple[str, ...]
    standardizer: nm.Standardizer | None = None
    chol_factor: np.ndarray | None = None  # Mahalanobis only: whitens the queries

    def _query_matrix(self, x: np.ndarray) -> np.ndarray:
        q = nm.as_rows(x, self.x_train.shape[1])
        if self.standardizer is not None:
            q = self.standardizer.apply(q)
        if self.chol_factor is not None:
            q = np.linalg.solve(self.chol_factor, q.T).T
        return q

    def _distances(self, q: np.ndarray) -> np.ndarray:
        diff = q[:, None, :] - self.x_train[None, :, :]
        if self.metric is Metric.CITYBLOCK:
            return np.abs(diff, out=diff).sum(axis=-1)
        return np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=-1))

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        q = self._query_matrix(x)
        k = self.k
        out = np.empty((q.shape[0], self.n_classes))
        for rows in nm.row_blocks(q.shape[0], self.x_train.nbytes):
            dists = self._distances(q[rows])
            nearest = np.argpartition(dists, k - 1, axis=1)[:, :k]
            # the k nearest are one set unless rows beyond the k-th tie with
            # it; there a stable sort hands the tie to the lower index
            kth = np.take_along_axis(dists, nearest[:, k - 1:], axis=1)
            for i in np.flatnonzero((dists <= kth).sum(axis=1) != k):
                nearest[i] = np.argsort(dists[i], kind="stable")[:k]
            n = nearest.shape[0]
            slots = self.y_train[nearest] + self.n_classes * np.arange(n)[:, None]
            out[rows] = np.bincount(slots.ravel(), minlength=n * self.n_classes
                                    ).reshape(n, self.n_classes)
        return out

    def describe(self) -> dict:
        return {"family": self.family, "k": self.k, "metric": self.metric.value,
                "standardized": self.standardizer is not None}


def fit_knn(train: Dataset, k: int = DEFAULT_K, metric: Metric = Metric.EUCLIDEAN,
            standardize: bool | None = None) -> KnnClassifier:
    """Store the training rows for majority-vote classification.

    k must be odd (vote-tie hygiene) and no larger than the training size.
    standardize=None applies the family policy: on for Euclidean/city-block,
    never for Mahalanobis.
    """
    if train.n == 0:
        raise EmptyTrainingSet("cannot fit on zero samples")
    metric = Metric(metric)
    k = int(k)
    if k < 1 or k > train.n:
        raise BadK(f"k={k} outside 1..{train.n}")
    if k % 2 == 0:
        raise BadK(f"k must be odd to avoid vote ties, got {k}")
    standardizer = None
    x = train.x
    if metric is not Metric.MAHALANOBIS and (standardize or standardize is None):
        standardizer = nm.standardizer_fit(train.x)
        x = standardizer.apply(train.x)
    chol = None
    if metric is Metric.MAHALANOBIS:
        cov = nm.add_ridge(nm.sample_mean_covariance(train.x).matrix)
        try:
            chol = nm.cholesky_spd(cov)
        except NotPositiveDefinite as exc:
            raise SingularCovariance(f"training covariance not invertible: {exc}") from exc
        x = np.linalg.solve(chol, train.x.T).T
    return KnnClassifier(k=k, metric=metric, x_train=np.array(x, dtype=float, order="C"),
                         y_train=np.asarray(train.y, dtype=int),
                         n_classes=train.n_classes, class_names=train.class_names,
                         standardizer=standardizer, chol_factor=chol)
