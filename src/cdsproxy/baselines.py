"""Incumbent proxy methods used as comparison anchors.

Curve mapping assigns every counterparty in a (region, sector, rating)
bucket the same summary spread (mean or median of the bucket). The
cross-sectional regression fits ordinary least squares to log spreads on
dummy-coded region/sector/rating/seniority levels, keeps an intercept and
one table of level effects per category, and predicts the exponential of
the fitted log spread. Both produce one value per category cell — every
member of a cell receives an identical proxy, which is exactly the
homogeneity the per-counterparty classifiers are built to beat.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import numerics as nm
from .errors import (
    BadConfig,
    RangeViolation,
    Setting,
    TooFewSamples,
    UnknownCategoryLevel,
)

CATEGORY_FIELDS = ("region", "sector", "rating", "seniority")
BUCKET_FIELDS = ("region", "sector", "rating")


class ProxyStatistic(Setting):
    MEAN = "mean"
    MEDIAN = "median"


@dataclass(frozen=True)
class CdsContractRecord:
    """One counterparty's observed spread plus its category labels."""

    counterparty: str
    spread: float            # basis points
    region: str
    sector: str
    rating: str
    seniority: str

    def __post_init__(self):
        if not (math.isfinite(self.spread) and self.spread > 0.0):
            raise RangeViolation(
                f"spread for {self.counterparty!r} must be a positive "
                f"finite number of basis points, got {self.spread!r}")

    def categories(self) -> dict[str, str]:
        return {field: getattr(self, field) for field in CATEGORY_FIELDS}


# ----------------------------------------------------------- curve mapping


def curve_mapping_proxy(bucket: Sequence[float],
                        statistic: ProxyStatistic = ProxyStatistic.MEAN,
                        ) -> float:
    """Summary spread of one bucket: arithmetic mean, or median with the
    even-count convention of averaging the middle pair."""
    statistic = ProxyStatistic(statistic)
    spreads = [float(s) for s in bucket]
    if not spreads:
        raise TooFewSamples("curve mapping needs at least one spread")
    if statistic is ProxyStatistic.MEAN:
        return statistics.fmean(spreads)
    return float(statistics.median(spreads))


def bucket_key(record: CdsContractRecord) -> tuple[str, ...]:
    return tuple(getattr(record, field) for field in BUCKET_FIELDS)


def curve_mapping_table(records: Sequence[CdsContractRecord],
                        statistic: ProxyStatistic = ProxyStatistic.MEAN,
                        ) -> dict[tuple[str, ...], float]:
    """Proxy spread for every (region, sector, rating) bucket present."""
    buckets: dict[tuple[str, ...], list[float]] = {}
    for record in records:
        buckets.setdefault(bucket_key(record), []).append(record.spread)
    return {key: curve_mapping_proxy(spreads, statistic)
            for key, spreads in sorted(buckets.items())}


# ------------------------------------------------- cross-sectional regression


@dataclass(frozen=True)
class CrossSectionalModel:
    """Log-linear spread model on dummy-coded category levels.

    effects[field][level], read-only, is the coefficient of every level seen
    in training. Each field's first sorted level is the reference: it has no
    dummy, so its effect lives in the intercept and its coefficient is 0.0.
    """

    intercept: float
    effects: Mapping[str, Mapping[str, float]]

    def __post_init__(self):
        object.__setattr__(self, "effects", MappingProxyType(
            {f: MappingProxyType(dict(t)) for f, t in self.effects.items()}))

    def coefficient(self, field: str, level: str) -> float:
        if field not in self.effects:
            raise BadConfig(f"{field!r} is not a category field; the fields "
                            f"are {', '.join(CATEGORY_FIELDS)}")
        levels = self.effects[field]
        if level not in levels:
            raise UnknownCategoryLevel(
                f"{field} level {level!r} was not in the training records; "
                f"known levels: {', '.join(sorted(levels))}")
        return levels[level]

    def predict(self, categories: Mapping[str, str]) -> float:
        total = self.intercept
        for field in CATEGORY_FIELDS:
            if field not in categories:
                raise BadConfig(f"categories lack the {field!r} field")
            total += self.coefficient(field, categories[field])
        return math.exp(total)


def fit_cross_sectional(records: Sequence[CdsContractRecord],
                        ) -> CrossSectionalModel:
    """Least squares on log spreads over intercept + level dummies."""
    if not records:
        raise TooFewSamples("regression needs at least one record")
    levels = {field: sorted({getattr(r, field) for r in records})
              for field in CATEGORY_FIELDS}
    columns = [(field, level)                 # a dummy per non-reference level
               for field in CATEGORY_FIELDS for level in levels[field][1:]]
    design = np.ones((len(records), 1 + len(columns)))
    for j, (field, level) in enumerate(columns, start=1):
        design[:, j] = [getattr(r, field) == level for r in records]
    target = np.log([r.spread for r in records])
    gram = design.T @ design
    beta = nm.solve_spd(gram, design.T @ target, "category dummies are collinear after "
                        "dropping reference levels; merge or drop the aliased levels")
    effects = {field: {levels[field][0]: 0.0} for field in CATEGORY_FIELDS}
    for (field, level), value in zip(columns, beta[1:]):
        effects[field][level] = float(value)
    return CrossSectionalModel(intercept=float(beta[0]), effects=effects)
