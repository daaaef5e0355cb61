"""Market panels, feature selections, datasets and the classifier contract.

A panel holds per-counterparty daily observations of the 16 market columns
(five-year CDS rate, six default probabilities, four implied and five
historical volatilities). Feature selections FS1..FS6 pick column subsets;
build_dataset flattens a panel into a labeled sample matrix where the label
of every (counterparty, date) row is the counterparty itself.
"""
from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .errors import (
    BadConfig,
    EmptyClass,
    InsufficientObservedRates,
    MissingColumn,
    MissingFiveYearRate,
    NotPositiveDefinite,
    RangeViolation,
    SchemaViolation,
    SingularDesign,
)

S_COLUMN = "s"
PD_COLUMNS = ("pd_6m", "pd_1y", "pd_2y", "pd_3y", "pd_4y", "pd_5y")
IV_COLUMNS = ("iv_3m", "iv_6m", "iv_12m", "iv_18m")
HV_COLUMNS = ("hv_1m", "hv_2m", "hv_3m", "hv_4m", "hv_6m")
PANEL_COLUMNS = (S_COLUMN,) + PD_COLUMNS + IV_COLUMNS + HV_COLUMNS


class FeatureSelection(str, enum.Enum):
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
    values: dict[str, np.ndarray]

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
            if col != S_COLUMN and not np.all(np.isfinite(arr)):
                raise SchemaViolation(f"column {col!r} has missing values")
        svals = self.values[S_COLUMN]
        if np.any(svals[np.isfinite(svals)] < 0.0):
            raise RangeViolation("s must be >= 0 where observed")
        for col in PD_COLUMNS:
            arr = self.values[col]
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise RangeViolation(f"{col} outside [0, 1]")
        for col in IV_COLUMNS + HV_COLUMNS:
            if np.any(self.values[col] < 0.0):
                raise RangeViolation(f"{col} must be >= 0")

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

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.n_classes)


def build_dataset(panel: MarketPanel, selection: FeatureSelection) -> Dataset:
    """Flatten a panel into samples for one feature selection.

    Rows are ordered by (counterparty, date); the label of a row is the
    index of its counterparty in panel.counterparties. Selections that
    include s require every five-year rate to be observed (impute first).
    """
    selection = FeatureSelection(selection)
    cols = selection.columns
    for col in cols:
        if col not in panel.values:
            raise MissingColumn(f"panel lacks column {col!r}")
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


@dataclass(frozen=True)
class ClassPriors:
    """Class prior probabilities; strictly positive, summing to one."""

    pi: np.ndarray

    def __post_init__(self):
        if np.any(self.pi <= 0.0):
            raise EmptyClass("priors must be strictly positive")
        if abs(float(self.pi.sum()) - 1.0) > 1e-12:
            raise RangeViolation("priors must sum to one")

    @property
    def log_pi(self) -> np.ndarray:
        return np.log(self.pi)


def class_priors(y: np.ndarray, n_classes: int, uniform: bool = False) -> ClassPriors:
    """Empirical priors n_j / n, or uniform when requested."""
    if uniform:
        return ClassPriors(pi=np.full(n_classes, 1.0 / n_classes))
    counts = np.bincount(np.asarray(y, dtype=int), minlength=n_classes)
    if np.any(counts == 0):
        empty = [j for j, c in enumerate(counts) if c == 0]
        raise EmptyClass(f"classes with no samples: {empty}")
    return ClassPriors(pi=counts / counts.sum())


def map_decision(scores: np.ndarray) -> int:
    """Maximum-a-posteriori label: the lowest class index among the argmax."""
    return int(np.argmax(scores))


class ClassifierModel(abc.ABC):
    """Contract shared by every trained classifier.

    A family implements one method, scores_batch, mapping an (n, d) array of
    rows to an (n, N) array of real class scores. The per-row scores and
    classify and the batch classify_batch derive from it; classification
    picks the lowest index among the maximal scores.
    """

    family: str = "base"

    @abc.abstractmethod
    def scores_batch(self, x: np.ndarray) -> np.ndarray:
        ...

    def scores(self, x: np.ndarray) -> np.ndarray:
        return self.scores_batch(np.asarray(x, dtype=float)[None, :])[0]

    def classify(self, x: np.ndarray) -> int:
        return map_decision(self.scores(x))

    def classify_batch(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.scores_batch(x), axis=1)

    def describe(self) -> dict:
        return {"family": self.family}


IMPUTATION_RIDGE = 1e-8


def impute_five_year_rate(panel: MarketPanel,
                          basis: FeatureSelection = FeatureSelection.FS5) -> MarketPanel:
    """Fill missing five-year rates from a log-linear regression.

    Regresses log(s) on the basis features (a selection without s) over the
    rows where s is observed, then fills each missing rate with the
    exponential of its fitted value. Observed rates are never modified;
    a panel with no missing rates is returned unchanged.
    """
    basis = FeatureSelection(basis)
    if S_COLUMN in basis.columns:
        raise BadConfig(f"imputation basis {basis.value} must not include s")
    miss = panel.missing_s_mask()
    if not miss.any():
        return panel
    flat_miss = miss.reshape(-1)
    features = np.column_stack([panel.values[c].reshape(-1) for c in basis.columns])
    design = np.column_stack([np.ones(features.shape[0]), features])
    svals = panel.values[S_COLUMN].reshape(-1)
    obs = ~flat_miss
    n_obs, n_coef = int(obs.sum()), design.shape[1]
    if n_obs < n_coef + 1:
        raise InsufficientObservedRates(
            f"{n_obs} observed rates < {n_coef + 1} needed for basis {basis.value}")
    target = np.log(np.maximum(svals[obs], 1e-12))
    xo = design[obs]
    normal = xo.T @ xo + IMPUTATION_RIDGE * np.eye(n_coef)
    try:
        beta = nm.solve_spd(normal, xo.T @ target)
    except NotPositiveDefinite as exc:
        raise SingularDesign(f"imputation design is singular: {exc}") from exc
    filled = svals.copy()
    filled[flat_miss] = np.exp(design[flat_miss] @ beta)
    values = dict(panel.values)
    values[S_COLUMN] = filled.reshape(panel.values[S_COLUMN].shape)
    return MarketPanel(counterparties=panel.counterparties, dates=panel.dates, values=values)
