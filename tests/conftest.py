import numpy as np
import pytest

from cdsproxy.core import (
    HV_COLUMNS,
    IV_COLUMNS,
    PANEL_COLUMNS,
    PD_COLUMNS,
    Dataset,
    MarketPanel,
)


def make_blobs(centers, n_per_class, scale=1.0, seed=0, names=None):
    """Gaussian blob dataset around the given class centers."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    k, d = centers.shape
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for j in range(k):
        xs.append(centers[j] + scale * rng.normal(size=(n_per_class, d)))
        ys.append(np.full(n_per_class, j, dtype=int))
    names = tuple(names) if names else tuple(f"C{j:02d}" for j in range(k))
    return Dataset(x=np.vstack(xs), y=np.concatenate(ys), class_names=names,
                   feature_names=tuple(f"f{i}" for i in range(d)))


def random_dataset(n, d, n_classes, seed=0):
    """Standard-normal rows with balanced labels in a seeded random order."""
    rng = np.random.default_rng(seed)
    return Dataset(x=rng.normal(size=(n, d)), y=rng.permutation(np.arange(n) % n_classes),
                   class_names=tuple(f"c{j}" for j in range(n_classes)),
                   feature_names=tuple(f"f{i}" for i in range(d)))


def tiny_panel(seed=0, n_cp=3, n_days=10, missing_s=()):
    """Small hand-rolled panel with values in their admissible ranges.

    missing_s: iterable of (counterparty_index, day_index) pairs whose s
    value is set to NaN.
    """
    rng = np.random.default_rng(seed)
    shape = (n_cp, n_days)
    values = {}
    base = rng.uniform(0.5, 2.5, size=(n_cp, 1))
    for col in PD_COLUMNS:
        values[col] = np.clip(rng.uniform(0.01, 0.25, size=shape) * base, 0.0, 1.0)
    for col in IV_COLUMNS + HV_COLUMNS:
        values[col] = rng.uniform(0.1, 0.6, size=shape) * base
    values["s"] = 100.0 * base * rng.uniform(0.8, 1.2, size=shape)
    for (i, t) in missing_s:
        values["s"][i, t] = np.nan
    names = tuple(f"CP{i:02d}" for i in range(n_cp))
    dates = tuple(f"2008-06-{d + 1:02d}" for d in range(n_days))
    return MarketPanel(counterparties=names, dates=dates, values=values)


@pytest.fixture
def blob3():
    """Three well-separated 2-d classes, 30 points each."""
    return make_blobs([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], 30, scale=0.6, seed=42)
