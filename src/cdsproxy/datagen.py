"""Seeded synthetic market panels with a controllable correlation regime.

Every (counterparty, day, feature) cell starts from a latent Gaussian

    latent = rho * ( risk_scale * risk[c] * alignment[f]
                     + code[c, t, f]
                     + response[f] * common[t] )
             + idiosyncratic[c, t, f]

rho scales every shared component at once — the risk-level ridge, the
pair codes and the daily factor — so at rho = 0 only the idiosyncratic
noise remains and the pooled feature correlations collapse.

Counterparties sit at spaced risk levels that move every column the same
way (a riskier name has a higher spread AND higher default probabilities
AND higher volatilities), and one common factor drives all 16 columns day
to day; together these produce the highly correlated feature columns of
real spread panels, and rho dials both effects at once. Risk levels come
in matched pairs — two names of identical overall riskiness — so levels
identify a counterparty's pair but nothing within it. What does is the
pair code, carried by two factor-quiet columns: both swing between two
modes with a daily state, each name leans toward its usual mode and pair
partners lean opposite ways, and the second code column reads the state
straight for even names and inverted for odd ones. A partner therefore
differs, marginally, only in the mode weights of the first code column —
a weak one-column signal — while the decisive information is
conditional: given the state, the second column separates the partners
cleanly. Methods that read one column at a time (class means, per-column
marginals) recover only the weak lean; methods that chain or combine
columns — axis-aligned split sequences, class covariances, interaction
terms — recover the identity. The remaining columns carry no code at
all, tracking the risk level and the daily factor only, so proximity in
them says nothing about identity within a pair. The
idiosyncratic noise is a two-scale Gaussian mixture (occasional wide
days), giving heavier tails than a single Gaussian, and the columns that
react hard to the factor are idiosyncratically noisier as well. Latents map into
valid market ranges: spreads and volatilities through exponentials,
default probabilities through cumulative hazards (which makes them
increase with horizon on every row by construction).
"""
from __future__ import annotations

import csv
import datetime
import itertools
from array import array
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .baselines import CATEGORY_FIELDS, CdsContractRecord
from .core import (
    HV_COLUMNS,
    IV_COLUMNS,
    PANEL_COLUMNS,
    PD_COLUMNS,
    S_COLUMN,
    MarketPanel,
    first_inadmissible,
)
from .errors import (
    BadConfig,
    MissingFiveYearRate,
    SchemaViolation,
    non_negative_integer,
    positive_integer,
    real_number,
)

REGIONS = ("Asia", "Europe", "LatinAmerica", "NorthAmerica")
SECTORS = ("Energy", "Financials", "Industrials", "Technology", "Utilities")
RATINGS = ("AA", "AAA", "BB", "BBB", "CC", "CCC")
SENIORITIES = ("Senior", "Subordinated")

_FIRST_DATE = datetime.date(2023, 1, 2)

# latent -> market maps
_S_BASE = 150.0            # basis points around which spreads move
_S_SCALE = 0.15
_HAZARD_BASE = 0.02        # annualised default intensity at latent = 0
_HAZARD_SCALE = 0.25
_TENOR_YEARS = (0.5, 0.5, 1.0, 1.0, 1.0, 1.0)   # segment lengths to 6m..5y
_IV_BASE = 0.30
_HV_BASE = 0.28
_VOL_SCALE = 0.12

# latent model shape
_IDIOSYNCRATIC_SCALE = 0.15  # standard deviation of the idiosyncratic noise
_BASE_SPACING = 0.5        # scales the pair-code amplitude
_RISK_SCALE = 2.2          # spread of the per-counterparty risk levels
_ALIGN_LOW, _ALIGN_HIGH = 0.8, 1.2     # per-feature risk sensitivity
# every other column reacts hard to the daily factor, the rest are stable
_RESPONSE_LIVELY = (2.0, 2.2)
_RESPONSE_STABLE = (0.5, 0.7)
_LIVELY_NOISE = 4.0        # idiosyncratic-scale multiplier on lively columns
_TAIL_PROBABILITY = 0.15   # chance of a wide-noise cell on a lively column
_TAIL_WIDTH = 3.0          # scale multiplier on wide-noise cells
# the two stable columns carrying the pair code; every other column tracks
# the risk level and the daily factor only
_CODE_COLUMNS = (8, 14)    # iv_6m, hv_4m
_CODE_AMPLITUDE = 1.5      # code mode offset per unit of _BASE_SPACING
_RESPONSE_CODE = 0.08      # code columns barely react to the daily factor
_STATE_BIAS = 0.60         # how strongly a name leans toward its usual state
_QUIET_PROBABILITY = 0.15  # chance a day's code swing is muted market-wide
_QUIET_FACTOR = 0.25       # code amplitude multiplier on quiet days


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic panel.

    factor_loading (rho) scales every shared component — risk levels,
    pair codes and the daily common factor — and is the correlation dial.
    """

    n_counterparties: int = 5
    n_days: int = 100
    factor_loading: float = 0.96
    seed: int = 0

    def __post_init__(self):
        for name in ("n_counterparties", "n_days"):
            object.__setattr__(self, name, positive_integer(name, getattr(self, name)))
        if self.n_counterparties < 2:
            raise BadConfig("need at least two counterparties")
        object.__setattr__(self, "factor_loading", real_number(
            "factor_loading", self.factor_loading, 0.0, 1.0, include_low=True))
        object.__setattr__(self, "seed", non_negative_integer("seed", self.seed))

    def settings(self) -> dict:
        return asdict(self)


def counterparty_names(n: int) -> tuple[str, ...]:
    width = max(3, len(str(n - 1)))
    return tuple(f"CP{i:0{width}d}" for i in range(n))


def _paired_risk_levels(n: int) -> np.ndarray:
    """Risk levels in matched pairs spread over [-1, 1].

    Counterparties 2p and 2p+1 share risk level p exactly, so overall
    riskiness identifies the pair but nothing within it.
    """
    n_pairs = (n + 1) // 2
    if n_pairs == 1:
        centers = np.zeros(1)
    else:
        centers = np.linspace(-1.0, 1.0, n_pairs)
    return centers[np.arange(n) // 2]


def generate_panel(config: GeneratorConfig) -> MarketPanel:
    """Deterministic panel from one seeded generator stream.

    Draw order (fixed, part of the determinism contract): factor
    responses, risk alignments, daily common factor, daily state bits,
    idiosyncratic noise, tail mask.
    """
    n, t, d = config.n_counterparties, config.n_days, len(PANEL_COLUMNS)
    rng = np.random.default_rng(config.seed)
    lively = rng.uniform(*_RESPONSE_LIVELY, size=d)
    stable = rng.uniform(*_RESPONSE_STABLE, size=d)
    response = np.where(np.arange(d) % 2 == 1, lively, stable)
    response[list(_CODE_COLUMNS)] = _RESPONSE_CODE   # keep the code modes crisp
    alignment = rng.uniform(_ALIGN_LOW, _ALIGN_HIGH, size=d)
    common = rng.normal(0.0, 1.0, size=t)
    # daily state: each name leans toward its usual mode, partners lean
    # opposite ways, so the state weights differ within a pair while the
    # mode positions do not
    lean = np.where(np.arange(n) % 2 == 0, _STATE_BIAS, 1.0 - _STATE_BIAS)
    bit = np.where(rng.random(size=(n, t)) < lean[:, None], 1.0, -1.0)
    idio = rng.normal(0.0, _IDIOSYNCRATIC_SCALE, size=(n, t, d))
    lively_col = np.arange(d) % 2 == 1
    idio = np.where(lively_col, _LIVELY_NOISE * idio, idio)
    wide = (rng.random(size=(n, t, d)) < _TAIL_PROBABILITY) & lively_col
    idio = np.where(wide, _TAIL_WIDTH * idio, idio)

    risk = _paired_risk_levels(n)
    level = (config.factor_loading * _RISK_SCALE
             * risk[:, None] * alignment[None, :])            # (n, d)
    # pair code: the first code column swings with the daily state, the
    # second reads the same state straight (even names) or inverted (odd
    # names), so partners differ only in the sign of that co-movement
    # occasional quiet days mute the code swing market-wide, leaving the
    # state readable only through fine cross-column geometry
    quiet = rng.random(size=t) < _QUIET_PROBABILITY
    swing = (_CODE_AMPLITUDE * _BASE_SPACING
             * np.where(quiet, _QUIET_FACTOR, 1.0))            # (t,)
    orientation = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    code = np.zeros((n, t, d))
    code[:, :, _CODE_COLUMNS[0]] = swing[None, :] * bit
    code[:, :, _CODE_COLUMNS[1]] = swing[None, :] * bit * orientation[:, None]
    latent = (level[:, None, :]
              + config.factor_loading * code
              + config.factor_loading * response[None, None, :]
              * common[None, :, None] + idio)

    values: dict[str, np.ndarray] = {}
    values[S_COLUMN] = _S_BASE * np.exp(_S_SCALE * latent[:, :, 0])
    cumulative = np.zeros((n, t))
    for k, col in enumerate(PD_COLUMNS):
        hazard = _HAZARD_BASE * np.exp(_HAZARD_SCALE * latent[:, :, 1 + k])
        cumulative = cumulative + hazard * _TENOR_YEARS[k]
        values[col] = 1.0 - np.exp(-cumulative)
    for k, col in enumerate(IV_COLUMNS):
        values[col] = _IV_BASE * np.exp(_VOL_SCALE * latent[:, :, 7 + k])
    for k, col in enumerate(HV_COLUMNS):
        values[col] = _HV_BASE * np.exp(_VOL_SCALE * latent[:, :, 11 + k])

    dates = tuple((_FIRST_DATE + datetime.timedelta(days=i)).isoformat()
                  for i in range(t))
    return MarketPanel(counterparties=counterparty_names(n), dates=dates,
                       values=values)


# ------------------------------------------------------------- panel CSV


_PANEL_HEADER = ("counterparty", "date") + PANEL_COLUMNS


def write_panel(panel: MarketPanel, path) -> None:
    """One row per (counterparty, date); a non-finite value is an empty cell."""
    columns = []
    for col in PANEL_COLUMNS:
        flat = panel.values[col].ravel()
        columns.append([repr(v) if finite else "" for v, finite
                        in zip(flat.tolist(), np.isfinite(flat).tolist())])
    keys = itertools.product(panel.counterparties, panel.dates)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_PANEL_HEADER)
        writer.writerows(key + cells for key, cells in zip(keys, zip(*columns)))


# rows converted at a time; their text stays smaller than the panel built
_BLOCK_ROWS = 512


def _append_block(block: list[tuple[int, list[str]]], fields: list[int | None],
                  columns: list[array]) -> None:
    """Append a block of numbered CSV rows to the column buffers, a column
    at a time: cells convert with Python's float, an empty s cell is NaN,
    and each column must pass first_inadmissible. Raises the fault of the
    first bad cell, in row and then PANEL_COLUMNS order."""
    faults = []
    for c, (col, field) in enumerate(zip(PANEL_COLUMNS, fields)):
        # only s may lack a field: a file without rates
        texts = ([""] * len(block) if field is None
                 else [row[field] for _, row in block])
        if col == S_COLUMN:
            texts = [text or "nan" for text in texts]
        values = array("d")
        try:
            values.extend(map(float, texts))
        except ValueError:       # extend keeps the cells before the bad one
            text = texts[len(values)]
            faults.append((len(values), c, SchemaViolation, "empty value"
                           if text == "" else f"not a number: {text!r}"))
        fault = first_inadmissible(col, np.frombuffer(values))
        if fault is not None:
            faults.append((fault[0], c, *fault[1:]))
        columns[c].extend(values)
    if faults:
        at, c, kind, message = min(faults)
        raise kind(f"row {block[at][0]}, column {PANEL_COLUMNS[c]}: {message}")


def read_panel(path) -> MarketPanel:
    """Load and validate a panel written by write_panel.

    A file without the s column still loads (its five-year rates are
    simply missing); any other absent column is a schema violation, as is
    a column the header names twice and an incomplete (counterparty, date)
    grid.

    Faults are raised in file order: the header's (absent, unknown, then
    repeated columns); then, row by row, a row's field count, its
    (counterparty, date) key if already seen, and its cells in
    PANEL_COLUMNS order; then a file without rows; then the first missing
    (counterparty, date) in sorted order.
    """
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaViolation("panel file is empty") from None
        missing = [c for c in _PANEL_HEADER if c not in header]
        if missing != [] and missing != [S_COLUMN]:
            raise SchemaViolation(f"panel file lacks columns: {missing}")
        extra = [c for c in header if c not in _PANEL_HEADER]
        if extra:
            raise SchemaViolation(f"panel file has unknown columns: {extra}")
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise SchemaViolation(f"panel file repeats columns: {repeated}")
        position = {c: i for i, c in enumerate(header)}
        fields = [position.get(col) for col in PANEL_COLUMNS]
        # each column's parsed cells in row order, and each (name, date)
        # key's row in them; rows wait, numbered, in block until converted
        columns = [array("d") for _ in PANEL_COLUMNS]
        row_of: dict[tuple[str, str], int] = {}
        block: list[tuple[int, list[str]]] = []
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                _append_block(block, fields, columns)
                raise SchemaViolation(
                    f"row {row_number}: expected {len(header)} fields, "
                    f"got {len(row)}")
            key = (row[position["counterparty"]], row[position["date"]])
            if key in row_of:
                _append_block(block, fields, columns)
                raise SchemaViolation(
                    f"row {row_number}: duplicate observation for {key}")
            row_of[key] = len(row_of)
            block.append((row_number, row))
            if len(block) == _BLOCK_ROWS:
                _append_block(block, fields, columns)
                block.clear()
        _append_block(block, fields, columns)
        block.clear()
    if not row_of:
        raise SchemaViolation("panel file has no observations")
    names = tuple(sorted({k[0] for k in row_of}))
    dates = tuple(sorted({k[1] for k in row_of}))
    if len(row_of) != len(names) * len(dates):
        for name, date in itertools.product(names, dates):
            if (name, date) not in row_of:
                raise SchemaViolation(
                    f"missing observation for counterparty {name!r} on {date}")
    # the keys are distinct and fill the grid, so every cell is written once
    name_at = {name: i for i, name in enumerate(names)}
    date_at = {date: j for j, date in enumerate(dates)}
    at = (np.fromiter((name_at[k[0]] for k in row_of), int, len(row_of)),
          np.fromiter((date_at[k[1]] for k in row_of), int, len(row_of)))
    values = {}
    for col, cells in zip(PANEL_COLUMNS, columns):
        values[col] = np.empty((len(names), len(dates)))
        values[col][at] = np.frombuffer(cells)
    return MarketPanel(counterparties=names, dates=dates, values=values)


# -------------------------------------------- category cells and records


def assign_categories(names: Sequence[str]) -> dict[str, dict[str, str]]:
    """Deterministic category labels with every cell holding >= 2 names.

    Counterparty i joins cell i mod (n // 2); the cell index spells out
    rating, then region, sector and seniority in mixed radix, so small
    universes vary only by rating (keeping the regression design full
    rank) while large ones spread over all four vocabularies.
    """
    n_cells = max(1, len(names) // 2)
    table = {}
    for i, name in enumerate(names):
        cell = i % n_cells
        rating, rest = RATINGS[cell % len(RATINGS)], cell // len(RATINGS)
        region, rest = REGIONS[rest % len(REGIONS)], rest // len(REGIONS)
        sector, rest = SECTORS[rest % len(SECTORS)], rest // len(SECTORS)
        seniority = SENIORITIES[rest % len(SENIORITIES)]
        table[name] = dict(zip(CATEGORY_FIELDS, (region, sector, rating, seniority)))
    return table


def records_from_panel(panel: MarketPanel,
                       categories: Mapping[str, Mapping[str, str]] | None = None,
                       ) -> list[CdsContractRecord]:
    """One record per counterparty: its latest observed five-year rate
    plus category labels (generated deterministically when not given);
    BadConfig when the given labels lack a counterparty or a field."""
    if categories is None:
        categories = assign_categories(panel.counterparties)
    records = []
    for i, name in enumerate(panel.counterparties):
        rates = panel.values[S_COLUMN][i]
        observed = np.flatnonzero(np.isfinite(rates))
        if observed.size == 0:
            raise MissingFiveYearRate(
                f"counterparty {name!r} has no observed five-year rate")
        if name not in categories:
            raise BadConfig(f"categories have no entry for counterparty {name!r}")
        cats = categories[name]
        missing = set(CATEGORY_FIELDS).difference(cats)
        if missing:
            raise BadConfig(f"categories of counterparty {name!r} lack the "
                            f"fields {sorted(missing)}")
        records.append(CdsContractRecord(
            counterparty=name, spread=float(rates[observed[-1]]),
            **{field: cats[field] for field in CATEGORY_FIELDS}))
    return records
