"""k-nearest-neighbour classification under three metrics.

Distances: Euclidean, city-block, and Mahalanobis with the (ridged) full
covariance of the training rows. Euclidean and city-block variants work on
standardised features; the Mahalanobis variant is scale invariant and uses
raw features: the fit whitens the training rows once with the covariance's
Cholesky factor L (rows L^-1 x), each predict whitens its queries the same
way, and the Euclidean distance between whitened rows is the Mahalanobis
distance.

A query's neighbours are the k training rows nearest by the elementwise
distance (difference, square or absolute value, sum over the features in
ascending feature order, square root), distance ties resolved to the
lower training index; class scores are the vote counts among them, label
ties to the lower class index. The fit stores the training rows once,
feature-major, as a contiguous (d, n) array, so a block's distances are
one (queries, n) array that takes one feature's terms at a time, each
pass's inner loop running over the n training rows.
City-block evaluates the elementwise distance for every pair.
Euclidean and Mahalanobis screen first: one matrix product gives every
squared distance as G = |q|^2 + |s|^2 - 2 q.s from the squared row norms
stored at fit. Where exactly k training rows lie within a rounding margin
of the k-th smallest G, those k are the elementwise neighbours; the margin
is derived in `KnnClassifier._screen`. Only the other queries, among them every one
with an exact tie or a duplicate row at the k-th rank, take the elementwise
distances and a stable sort, so the scores are those of the elementwise
distances bit for bit. Queries are scored in blocks sized by
numerics.BLOCK_BYTES, so a predict's memory does not grow with queries x
training rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .core import ClassifierModel, Dataset, check_training_set
from .errors import BadConfig, Setting, positive_integer

DEFAULT_K = 9

_U = np.finfo(float).eps / 2       # unit roundoff
_TINY = np.finfo(float).tiny       # smallest normal number
_SAFE = np.finfo(float).max / 8    # below this no screen quantity overflows


class Metric(Setting):
    EUCLIDEAN = "euclidean"
    CITYBLOCK = "cityblock"
    MAHALANOBIS = "mahalanobis"


@dataclass
class KnnClassifier(ClassifierModel):
    """Lazy nearest-neighbour model; stores the standardised or whitened rows."""

    k: int
    metric: Metric
    x_train: np.ndarray          # (d, n): the standardised or whitened rows, feature-major
    y_train: np.ndarray
    n_classes: int
    class_names: tuple[str, ...]
    standardizer: nm.Standardizer | None = None
    chol_factor: np.ndarray | None = None  # Mahalanobis only: whitens the queries
    sq_norms: np.ndarray | None = None     # |s|^2 of each row; not for city-block

    def _query_matrix(self, x: np.ndarray) -> np.ndarray:
        q = (nm.as_rows(x, self.x_train.shape[0]) if self.standardizer is None
             else self.standardizer.apply(x))
        if self.chol_factor is not None:
            q = np.linalg.solve(self.chol_factor, q.T).T
        return q

    def _distances(self, q: np.ndarray) -> np.ndarray:
        """Elementwise distances from query rows q to every training row, a
        (queries, n) sum taken one feature at a time in ascending feature
        order."""
        cityblock = self.metric is Metric.CITYBLOCK
        total = np.empty((q.shape[0], self.x_train.shape[1]))
        term = np.empty_like(total)
        for f, row in enumerate(self.x_train):
            out = term if f else total
            np.subtract(q[:, f, None], row, out=out)
            if cityblock:
                np.abs(out, out=out)
            else:
                np.multiply(out, out, out=out)
            if f:
                total += term
        return total if cityblock else np.sqrt(total, out=total)

    def _screen(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Squared distances G = |q|^2 + |s|^2 - 2 q.s from query rows q to
        every training row by one matrix product, and each query's margin.

        With u the unit roundoff, g_n = n u / (1 - n u), d features, T the
        exact squared distance of q to a row s and A = |q|^2 + max |s|^2
        (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
        section 3.1):
        - the squared norms are within g_d of themselves, and 2 q.s, summed
          in any order, with or without fused multiply-adds, within
          g_d 2|q||s| <= g_d A; the two additions add u of at most 2A
          each, so |G - T| <= e = (2d + 5) u A;
        - the elementwise squared distance E (a difference, a square and a
          sum of d terms >= 0 per pair) is within g_(d+1) T of T;
        - take j among the k smallest G and l with G_l > kth + m. Then
          X = kth + e >= T_j, E_j <= (1 + g_(d+1)) X and
          E_l > (1 - g_(d+1)) (X + m - 2e). E_l > (1 + 8u) E_j, which
          keeps sqrt(E_l) > sqrt(E_j) through the square root's own
          rounding, so that no tie can arise, holds once
          m >= 2e + (2 g_(d+1) + 9u) X, with X <= 2A + e;
        - that is (4d + 10) u A + (4d + 22) u A, and forming kth + m can
          take 2 u A off it. m = (8d + 40) u A covers these and the
          second-order terms for d below 10^7.
        Roundings below the normal range err by at most 2^-1075 each,
        which the term in the smallest normal number covers. A query whose
        A is not below max/8 gets a NaN margin, which no key passes, so it
        takes the elementwise path; the bound assumes finite rows.
        """
        qn = (q * q).sum(axis=1)
        keys = q @ self.x_train
        keys *= -2.0
        keys += qn[:, None]
        keys += self.sq_norms
        scale = qn + self.sq_norms.max()
        margin = (8 * q.shape[1] + 40) * _U * (scale + _TINY)
        margin[~(scale < _SAFE)] = np.nan
        return keys, margin[:, None]

    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        q = self._query_matrix(x)
        k = self.k
        out = np.empty((q.shape[0], self.n_classes))
        screened = self.sq_norms is not None
        # a block's largest temporary: its (queries, n) keys or distances
        for rows in nm.row_blocks(q.shape[0], self.x_train[0].nbytes):
            block = q[rows]
            keys, margin = (self._screen(block) if screened
                            else (self._distances(block), 0.0))
            nearest = np.argpartition(keys, k - 1, axis=1)[:, :k]
            # the k nearest are one set unless a key beyond the k-th lies
            # within the margin of it; there the elementwise distances and
            # a stable sort hand each tie to the lower index
            kth = np.take_along_axis(keys, nearest[:, k - 1:], axis=1)
            for i in np.flatnonzero((keys <= kth + margin).sum(axis=1) != k):
                dists = self._distances(block[i:i + 1])[0] if screened else keys[i]
                nearest[i] = np.argsort(dists, kind="stable")[:k]
            n = nearest.shape[0]
            slots = self.y_train[nearest] + self.n_classes * np.arange(n)[:, None]
            out[rows] = np.bincount(slots.ravel(), minlength=n * self.n_classes
                                    ).reshape(n, self.n_classes)
        return out

    def describe(self) -> dict:
        return {"k": self.k, "metric": self.metric.value,
                "standardized": self.standardizer is not None}


def fit_knn(train: Dataset, k: int = DEFAULT_K,
            metric: Metric = Metric.EUCLIDEAN) -> KnnClassifier:
    """Store the training rows for majority-vote classification.

    k must be odd (vote-tie hygiene) and no larger than the training size.
    Euclidean and city-block store standardised rows, Mahalanobis whitened
    ones; Euclidean and Mahalanobis also store the rows' squared norms for
    the screen.
    """
    check_training_set(train, two_classes=False)
    metric = Metric(metric)
    k = positive_integer("k", k)
    if k > train.n:
        raise BadConfig(f"k={k} outside 1..{train.n}")
    if k % 2 == 0:
        raise BadConfig(f"k must be odd to avoid vote ties, got {k}")
    standardizer = chol = None
    if metric is Metric.MAHALANOBIS:
        cov = nm.add_ridge(nm.sample_mean_covariance(train.x)[1])
        chol = nm.cholesky_spd(cov, "training covariance not invertible")
        x = np.linalg.solve(chol, train.x.T)
    else:
        standardizer = nm.standardizer_fit(train.x)
        x = standardizer.apply(train.x).T
    x = np.ascontiguousarray(x, dtype=float)
    return KnnClassifier(k=k, metric=metric, x_train=x,
                         y_train=np.asarray(train.y, dtype=int),
                         n_classes=train.n_classes, class_names=train.class_names,
                         standardizer=standardizer, chol_factor=chol,
                         sq_norms=None if metric is Metric.CITYBLOCK else (x * x).sum(axis=0))
