"""Market panels, feature selections, datasets and the classifier contract.

A panel holds per-counterparty daily observations of the 16 market columns
(five-year CDS rate, six default probabilities, four implied and five
historical volatilities). Feature selections FS1..FS6 pick column subsets;
build_dataset flattens a panel into a labeled sample matrix where the label
of every (counterparty, date) row is the counterparty itself.
"""
from __future__ import annotations

import abc
import types
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .errors import (
    EmptyClass,
    MissingFiveYearRate,
    RangeViolation,
    SchemaViolation,
    Setting,
    TooFewSamples,
)

S_COLUMN = "s"
PD_COLUMNS = ("pd_6m", "pd_1y", "pd_2y", "pd_3y", "pd_4y", "pd_5y")
IV_COLUMNS = ("iv_3m", "iv_6m", "iv_12m", "iv_18m")
HV_COLUMNS = ("hv_1m", "hv_2m", "hv_3m", "hv_4m", "hv_6m")
PANEL_COLUMNS = (S_COLUMN,) + PD_COLUMNS + IV_COLUMNS + HV_COLUMNS


class FeatureSelection(Setting):
    """The six benchmark feature selections."""

    FS1 = "FS1"
    FS2 = "FS2"
    FS3 = "FS3"
    FS4 = "FS4"
    FS5 = "FS5"
    FS6 = "FS6"

    @property
    def columns(self) -> tuple[str, ...]:
        return _SELECTION_COLUMNS[self]


_SELECTION_COLUMNS = {
    FeatureSelection.FS1: PANEL_COLUMNS,
    FeatureSelection.FS2: (S_COLUMN, "pd_5y", "iv_6m", "hv_4m"),
    FeatureSelection.FS3: (S_COLUMN, "pd_5y"),
    FeatureSelection.FS4: PD_COLUMNS + IV_COLUMNS + HV_COLUMNS,
    FeatureSelection.FS5: ("pd_5y", "iv_6m", "hv_4m"),
    FeatureSelection.FS6: ("pd_1y", "pd_5y"),
}

ALL_SELECTIONS = tuple(FeatureSelection)


def first_inadmissible(column: str, values: np.ndarray) -> tuple[int, type, str] | None:
    """The first value of a panel column, in C order, that the column does
    not admit, as (flat index, exception class, message), or None: s admits
    NaN (a missing rate) and, like a contract record, finite rates > 0, the
    others finite values >= 0, probabilities only those <= 1. Elsewhere NaN
    or +-inf is a missing value, a SchemaViolation; any other is a RangeViolation."""
    flat = np.asarray(values, dtype=float).reshape(-1)
    upper = 1.0 if column in PD_COLUMNS else np.finfo(float).max
    lower = flat > 0.0 if column == S_COLUMN else flat >= 0.0
    bad = ~(lower & (flat <= upper))
    if column == S_COLUMN:
        bad &= ~np.isnan(flat)
    hits = np.flatnonzero(bad)
    if hits.size == 0:
        return None
    at, value = int(hits[0]), float(flat[hits[0]])
    if column == S_COLUMN:
        rule = "must be finite" if np.isinf(value) else "must be > 0"
        return at, RangeViolation, f"spread {rule}, got {value}"
    if not np.isfinite(value):
        return at, SchemaViolation, f"missing value: {value}"
    if column in PD_COLUMNS:
        return at, RangeViolation, f"probability outside [0, 1]: {value}"
    return at, RangeViolation, f"volatility must be >= 0, got {value}"


@dataclass(frozen=True)
class MarketPanel:
    """Daily market observations per counterparty.

    counterparties and dates must be strictly increasing (lexicographic /
    ISO order); values maps each of the 16 panel columns to an array of
    shape (n_counterparties, n_days). Only the s column may contain NaN
    (missing five-year rates of illiquid names).
    """

    counterparties: tuple[str, ...]
    dates: tuple[str, ...]
    values: Mapping[str, np.ndarray]

    def __post_init__(self):
        if len(self.counterparties) < 1:
            raise SchemaViolation("panel needs at least one counterparty")
        if list(self.counterparties) != sorted(set(self.counterparties)):
            raise SchemaViolation("counterparties must be unique and sorted")
        if list(self.dates) != sorted(set(self.dates)):
            raise SchemaViolation("dates must be unique and ascending")
        shape = (len(self.counterparties), len(self.dates))
        for col in PANEL_COLUMNS:
            if col not in self.values:
                raise SchemaViolation(f"panel lacks column {col!r}")
            arr = self.values[col]
            if arr.shape != shape:
                raise SchemaViolation(f"column {col!r} has shape {arr.shape}, expected {shape}")
            fault = first_inadmissible(col, arr)
            if fault is not None:
                at, kind, message = fault
                i, j = divmod(at, shape[1])
                raise kind(f"column {col!r}, counterparty {self.counterparties[i]!r}, "
                           f"date {self.dates[j]}: {message}")
        # a read-only view, so that no column can be added, dropped or
        # replaced without the checks above
        object.__setattr__(self, "values", types.MappingProxyType(dict(self.values)))

    @property
    def n_counterparties(self) -> int:
        return len(self.counterparties)

    @property
    def n_days(self) -> int:
        return len(self.dates)

    def missing_s_mask(self) -> np.ndarray:
        return ~np.isfinite(self.values[S_COLUMN])


@dataclass(frozen=True)
class Dataset:
    """Labeled samples: one row per (counterparty, date)."""

    x: np.ndarray
    y: np.ndarray
    class_names: tuple[str, ...]
    feature_names: tuple[str, ...]
    selection: FeatureSelection | None = None

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise SchemaViolation("dataset arrays are inconsistent")
        if self.x.shape[1] != len(self.feature_names):
            raise SchemaViolation("feature name count != feature dimension")
        if not np.all(np.isfinite(self.x)):
            raise SchemaViolation("dataset features must be finite")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= len(self.class_names)):
            raise SchemaViolation("labels outside class range")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return replace(self, x=self.x[indices], y=self.y[indices])


def build_dataset(panel: MarketPanel, selection: FeatureSelection) -> Dataset:
    """Flatten a panel into samples for one feature selection.

    Rows are ordered by (counterparty, date); the label of a row is the
    index of its counterparty in panel.counterparties. Selections that
    include s require every five-year rate to be observed (impute first).
    """
    selection = FeatureSelection(selection)
    cols = selection.columns
    if S_COLUMN in cols and np.any(panel.missing_s_mask()):
        n_miss = int(panel.missing_s_mask().sum())
        raise MissingFiveYearRate(
            f"{selection.value} includes s but {n_miss} rates are missing; impute first")
    n_cp, n_days = panel.n_counterparties, panel.n_days
    x = np.empty((n_cp * n_days, len(cols)))
    for j, col in enumerate(cols):
        x[:, j] = panel.values[col].reshape(-1)
    y = np.repeat(np.arange(n_cp), n_days)
    return Dataset(x=x, y=y, class_names=tuple(panel.counterparties),
                   feature_names=tuple(cols), selection=selection)


def check_training_set(train: Dataset, two_classes: bool = True) -> None:
    """Raise TooFewSamples on a training set without rows and, when
    two_classes, EmptyClass on one whose rows hold a single class."""
    if train.n == 0:
        raise TooFewSamples("cannot fit on zero samples")
    if two_classes and np.unique(train.y).size < 2:
        raise EmptyClass("training data holds a single class")


def class_counts(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Samples per class, n_j; raises EmptyClass when a class has none."""
    counts = np.bincount(np.asarray(y, dtype=int), minlength=n_classes)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise EmptyClass(f"classes with no samples: {empty.tolist()}")
    return counts


def class_log_priors(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Logs of the empirical priors n_j / n; raises EmptyClass when a
    class has no samples."""
    counts = class_counts(y, n_classes)
    return np.log(counts / counts.sum())


class ClassifierModel(abc.ABC):
    """Contract shared by every trained classifier.

    scores_batch maps an (n, d) array of rows to an (n, N) array of real
    class scores; classify_batch picks, per row, the lowest index among the
    maximal scores. A model keeps only what scores_batch, describe() (a
    JSON-ready dict of its fit settings and diagnostics) and perfbench's
    reference checks read; the fold's Dataset names the classes, and the
    classifier registry (evaluation.ClassifierSpec) the family.
    """

    @abc.abstractmethod
    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        ...

    def classify_batch(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.scores_batch(x), axis=1)


IMPUTATION_RIDGE = 1e-8


def impute_five_year_rate(panel: MarketPanel) -> MarketPanel:
    """Fill missing five-year rates from a log-linear regression.

    Regresses log(s) on the FS5 features (FS2 without s) over the rows
    where s is observed, then fills each missing rate with the exponential
    of its fitted value. Observed rates are never modified; a panel with no
    missing rates is returned unchanged.
    """
    miss = panel.missing_s_mask()
    if not miss.any():
        return panel
    flat_miss = miss.reshape(-1)
    features = np.column_stack([panel.values[c].reshape(-1)
                                for c in FeatureSelection.FS5.columns])
    design = np.column_stack([np.ones(features.shape[0]), features])
    svals = panel.values[S_COLUMN].reshape(-1)
    obs = ~flat_miss
    n_obs, n_coef = int(obs.sum()), design.shape[1]
    if n_obs < n_coef + 1:
        raise TooFewSamples(
            f"{n_obs} observed rates < {n_coef + 1} needed for basis FS5")
    target = np.log(svals[obs])
    xo = design[obs]
    normal = xo.T @ xo + IMPUTATION_RIDGE * np.eye(n_coef)
    beta = nm.solve_spd(normal, xo.T @ target, "imputation design is singular")
    filled = svals.copy()
    filled[flat_miss] = np.exp(design[flat_miss] @ beta)
    values = dict(panel.values)
    values[S_COLUMN] = filled.reshape(panel.values[S_COLUMN].shape)
    return MarketPanel(counterparties=panel.counterparties, dates=panel.dates, values=values)
