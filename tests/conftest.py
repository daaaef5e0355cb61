import os
from pathlib import Path

import numpy as np
import pytest

import cdsproxy
from cdsproxy.core import (
    HV_COLUMNS,
    IV_COLUMNS,
    PD_COLUMNS,
    Dataset,
    FeatureSelection,
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


def identical_rows():
    """Twenty copies of one FS5 row, ten in each of two classes. The values
    are dyadic, so every sample mean is exact and every covariance estimated
    from the rows is zero, which the ridge cannot repair."""
    return Dataset(x=np.tile([0.0625, 0.25, 0.5], (20, 1)), y=np.repeat([0, 1], 10),
                   class_names=("CP00", "CP01"),
                   feature_names=FeatureSelection.FS5.columns,
                   selection=FeatureSelection.FS5)


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


# the settings as the BLAS read them when numpy loaded it: perfbench's run.py,
# which the perfbench tests import later in the same run, sets both to 1
BLAS_THREAD_SETTINGS = ", ".join(
    f"{name}={os.environ.get(name, 'unset')}"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))


def pytest_terminal_summary(terminalreporter):
    """Name the numpy and BLAS the run used, and the BLAS thread settings it
    started with, on one line that -q still shows: SVM results can follow
    the thread count, and this line reports it without setting it. The
    line also counts the lines of the package's modules (as wc -l does),
    the size that a change meant to simplify the code reports."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 has no mode="dicts"
        blas = {}
    source_lines = sum(path.read_bytes().count(b"\n")
                       for path in Path(cdsproxy.__file__).parent.glob("*.py"))
    terminalreporter.write_line(
        f"numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} "
        f"{blas.get('version', 'unknown')}, {BLAS_THREAD_SETTINGS}, "
        f"cpu_count={os.cpu_count()}, src/cdsproxy/*.py {source_lines} lines")
