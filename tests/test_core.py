import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_panel
from cdsproxy.core import (
    ALL_SELECTIONS,
    PANEL_COLUMNS,
    ClassifierModel,
    Dataset,
    FeatureSelection,
    MarketPanel,
    build_dataset,
    check_training_set,
    class_log_priors,
    first_inadmissible,
    impute_five_year_rate,
)
from cdsproxy.errors import (
    EmptyClass,
    MissingFiveYearRate,
    RangeViolation,
    SchemaViolation,
    TooFewSamples,
)

FS = FeatureSelection


class TestFeatureSelections:
    def test_column_definitions_frozen(self):
        assert FS.FS1.columns == (
            "s", "pd_6m", "pd_1y", "pd_2y", "pd_3y", "pd_4y", "pd_5y",
            "iv_3m", "iv_6m", "iv_12m", "iv_18m",
            "hv_1m", "hv_2m", "hv_3m", "hv_4m", "hv_6m")
        assert FS.FS2.columns == ("s", "pd_5y", "iv_6m", "hv_4m")
        assert FS.FS3.columns == ("s", "pd_5y")
        assert FS.FS4.columns == FS.FS1.columns[1:]
        assert FS.FS5.columns == ("pd_5y", "iv_6m", "hv_4m")
        assert FS.FS6.columns == ("pd_1y", "pd_5y")

    def test_dimensions(self):
        dims = {s: len(s.columns) for s in ALL_SELECTIONS}
        assert dims == {FS.FS1: 16, FS.FS2: 4, FS.FS3: 2,
                        FS.FS4: 15, FS.FS5: 3, FS.FS6: 2}


class TestBuildDataset:
    def test_shapes_labels_order(self):
        panel = tiny_panel(seed=1, n_cp=3, n_days=5)
        ds = build_dataset(panel, FS.FS2)
        assert ds.x.shape == (15, 4)
        assert list(ds.class_names) == list(panel.counterparties)
        assert np.array_equal(ds.y, np.repeat([0, 1, 2], 5))
        # row (i, t) carries the panel values of counterparty i on day t
        assert ds.x[7, 0] == panel.values["s"][1, 2]
        assert ds.x[7, 1] == panel.values["pd_5y"][1, 2]

    def test_fs1_restriction_equals_fs4(self):
        panel = tiny_panel(seed=2)
        full = build_dataset(panel, FS.FS1)
        part = build_dataset(panel, FS.FS4)
        keep = [full.feature_names.index(c) for c in part.feature_names]
        assert np.array_equal(full.x[:, keep], part.x)
        assert np.array_equal(full.y, part.y)

    def test_missing_s_blocks_selections_with_s(self):
        panel = tiny_panel(seed=3, missing_s=[(0, 1), (2, 4)])
        for sel in (FS.FS1, FS.FS2, FS.FS3):
            with pytest.raises(MissingFiveYearRate):
                build_dataset(panel, sel)
        for sel in (FS.FS4, FS.FS5, FS.FS6):
            ds = build_dataset(panel, sel)
            assert np.all(np.isfinite(ds.x))

    def test_subset(self):
        panel = tiny_panel(seed=4)
        ds = build_dataset(panel, FS.FS3)
        sub = ds.subset(np.array([0, 5, 10]))
        assert sub.n == 3
        assert np.array_equal(sub.x, ds.x[[0, 5, 10]])


class TestPanelValidation:
    def test_unsorted_counterparties_rejected(self):
        panel = tiny_panel(seed=5)
        with pytest.raises(SchemaViolation):
            MarketPanel(counterparties=tuple(reversed(panel.counterparties)),
                        dates=panel.dates, values=panel.values)

    def test_missing_column_rejected(self):
        panel = tiny_panel(seed=6)
        values = {c: v for c, v in panel.values.items() if c != "hv_6m"}
        with pytest.raises(SchemaViolation):
            MarketPanel(panel.counterparties, panel.dates, values)

    def test_pd_range_enforced(self):
        panel = tiny_panel(seed=7)
        values = dict(panel.values)
        bad = values["pd_5y"].copy()
        bad[0, 0] = 1.5
        values["pd_5y"] = bad
        with pytest.raises(RangeViolation):
            MarketPanel(panel.counterparties, panel.dates, values)

    def test_negative_vol_rejected(self):
        panel = tiny_panel(seed=8)
        values = dict(panel.values)
        bad = values["iv_6m"].copy()
        bad[0, 0] = -0.1
        values["iv_6m"] = bad
        with pytest.raises(RangeViolation):
            MarketPanel(panel.counterparties, panel.dates, values)

    def test_nan_only_allowed_in_s(self):
        panel = tiny_panel(seed=9)
        values = dict(panel.values)
        bad = values["pd_6m"].copy()
        bad[1, 1] = np.nan
        values["pd_6m"] = bad
        with pytest.raises(SchemaViolation):
            MarketPanel(panel.counterparties, panel.dates, values)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_rate_rejected_with_its_cell(self, value):
        panel = tiny_panel(seed=10)
        values = dict(panel.values)
        bad = values["s"].copy()
        bad[1, 2] = value
        values["s"] = bad
        with pytest.raises(RangeViolation, match=(
                r"^column 's', counterparty 'CP01', date 2008-06-03: spread "
                r"must be finite, got -?inf$")):
            MarketPanel(panel.counterparties, panel.dates, values)

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0])
    def test_rate_not_above_zero_rejected_with_its_cell(self, value):
        # a contract record takes no such rate, and imputation takes its log
        panel = tiny_panel(seed=10)
        values = dict(panel.values)
        bad = values["s"].copy()
        bad[2, 4] = value
        values["s"] = bad
        with pytest.raises(RangeViolation, match=(
                rf"^column 's', counterparty 'CP02', date 2008-06-05: spread "
                rf"must be > 0, got {value}$")):
            MarketPanel(panel.counterparties, panel.dates, values)

    def test_fault_names_column_counterparty_date_and_value(self):
        panel = tiny_panel(seed=11)
        values = dict(panel.values)
        bad = values["pd_2y"].copy()
        bad[2, 7] = 1.25
        bad[2, 8] = np.nan
        values["pd_2y"] = bad
        with pytest.raises(RangeViolation, match=(
                r"^column 'pd_2y', counterparty 'CP02', date 2008-06-08: "
                r"probability outside \[0, 1\]: 1.25$")):
            MarketPanel(panel.counterparties, panel.dates, values)

    def test_columns_cannot_be_replaced_or_dropped(self):
        panel = tiny_panel(seed=12)
        with pytest.raises(TypeError):
            panel.values["s"] = np.full(panel.values["s"].shape, np.inf)
        with pytest.raises(TypeError):
            del panel.values["pd_1y"]
        assert set(panel.values) == set(PANEL_COLUMNS)

    def test_later_changes_to_the_given_mapping_do_not_reach_the_panel(self):
        base = tiny_panel(seed=13)
        values = dict(base.values)
        panel = MarketPanel(base.counterparties, base.dates, values)
        del values["pd_1y"]
        values["s"] = -values["s"]
        assert "pd_1y" in panel.values
        assert np.all(panel.values["s"] > 0.0)

    def test_columns_constant(self):
        assert len(PANEL_COLUMNS) == 16
        assert PANEL_COLUMNS[0] == "s"


def _panel(counterparties=None, dates=None, **columns):
    """tiny_panel's names, dates and columns, with the given ones replaced."""
    base = tiny_panel(seed=14)
    return MarketPanel(base.counterparties if counterparties is None else counterparties,
                       base.dates if dates is None else dates,
                       {**base.values, **columns})


def _dataset(x=((0.0, 1.0), (2.0, 3.0), (4.0, 5.0)), y=(0, 1, 1), names=("f0", "f1")):
    return Dataset(x=np.array(x), y=np.array(y), class_names=("A", "B"),
                   feature_names=names)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: _panel(counterparties=()),
                 "panel needs at least one counterparty", id="no-counterparty"),
    pytest.param(lambda: _panel(dates=tuple(reversed(tiny_panel().dates))),
                 "dates must be unique and ascending", id="dates-descending"),
    pytest.param(lambda: _panel(dates=("2008-06-01",) * 10),
                 "dates must be unique and ascending", id="dates-repeated"),
    pytest.param(lambda: _panel(hv_6m=np.ones((3, 9))),
                 "column 'hv_6m' has shape (3, 9), expected (3, 10)", id="column-shape"),
    pytest.param(lambda: _dataset(y=(0, 1)), "dataset arrays are inconsistent",
                 id="x-and-y-sizes"),
    pytest.param(lambda: _dataset(names=("f0",)),
                 "feature name count != feature dimension", id="feature-names"),
    pytest.param(lambda: _dataset(x=((0.0, 1.0), (np.inf, 3.0), (4.0, 5.0))),
                 "dataset features must be finite", id="x-not-finite"),
    pytest.param(lambda: _dataset(y=(0, 1, 2)), "labels outside class range",
                 id="label-out-of-range")])
def test_schema_violations_name_their_rule(build, message):
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
        build()


class TestColumnRules:
    @pytest.mark.parametrize("column, values", [
        ("s", [5e-324, 150.0, np.nan]),
        ("pd_6m", [0.0, 0.5, 1.0]),
        ("iv_3m", [0.0, 0.3, 1e300]),
        ("hv_6m", [0.0, 2.0, 0.3]),
    ])
    def test_admissible_columns_pass(self, column, values):
        assert first_inadmissible(column, np.array(values)) is None

    @pytest.mark.parametrize("column, value, kind, message", [
        ("s", 0.0, RangeViolation, "spread must be > 0, got 0.0"),
        ("s", -1.0, RangeViolation, "spread must be > 0, got -1.0"),
        ("s", np.inf, RangeViolation, "spread must be finite, got inf"),
        ("s", -np.inf, RangeViolation, "spread must be finite, got -inf"),
        ("pd_1y", 1.5, RangeViolation, "probability outside [0, 1]: 1.5"),
        ("pd_1y", -0.0001, RangeViolation,
         "probability outside [0, 1]: -0.0001"),
        ("pd_1y", np.nan, SchemaViolation, "missing value: nan"),
        ("pd_1y", np.inf, SchemaViolation, "missing value: inf"),
        ("iv_18m", -0.5, RangeViolation, "volatility must be >= 0, got -0.5"),
        ("hv_1m", -np.inf, SchemaViolation, "missing value: -inf"),
        ("hv_1m", np.nan, SchemaViolation, "missing value: nan"),
    ])
    def test_first_bad_value_is_named(self, column, value, kind, message):
        values = np.array([[0.1, 0.2, 0.3], [0.4, value, -2.0]])
        assert first_inadmissible(column, values) == (4, kind, message)


class TestTrainingSetCheck:
    def test_empty_training_set_rejected(self, blob3):
        for two_classes in (True, False):
            with pytest.raises(TooFewSamples, match="cannot fit on zero samples"):
                check_training_set(blob3.subset(np.arange(0)), two_classes)

    def test_single_class_rejected_only_where_two_are_needed(self, blob3):
        one_class = blob3.subset(np.flatnonzero(blob3.y == 2))
        check_training_set(one_class, two_classes=False)
        with pytest.raises(EmptyClass, match="training data holds a single class"):
            check_training_set(one_class)
        check_training_set(blob3)


class FixedScores(ClassifierModel):
    """A model whose class scores are its query rows."""

    def scores_batch(self, x):
        return np.asarray(x, dtype=float)


class TestClassifyBatch:
    def test_tie_goes_to_lowest_index(self):
        model = FixedScores()
        rows = np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 2.0], [5.0, 1.0, 5.0]])
        assert model.classify_batch(rows).tolist() == [1, 0, 0]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=8),
           st.integers(-10**9, 10**9))
    def test_invariant_under_constant_shift(self, scores, shift):
        # integer-valued floats keep the addition exact, so the mathematical
        # invariance is observable without rounding collapsing near-ties
        s = np.array([scores], dtype=float)
        model = FixedScores()
        assert model.classify_batch(s)[0] == model.classify_batch(s + float(shift))[0]


class TestClassPriors:
    def test_empirical_counts(self):
        log_pri = class_log_priors(np.array([0, 0, 0, 1, 2, 2]), 3)
        assert np.allclose(log_pri, np.log([0.5, 1 / 6, 1 / 3]))
        assert abs(np.exp(log_pri).sum() - 1.0) < 1e-12

    def test_empty_class_rejected(self):
        with pytest.raises(EmptyClass):
            class_log_priors(np.array([0, 0, 2]), 3)


class TestImputation:
    def _panel_with_loglinear_s(self, seed=0, missing=((0, 1), (1, 3), (2, 7))):
        panel = tiny_panel(seed=seed, n_cp=3, n_days=12)
        beta = np.array([2.0, 0.5, -1.2, 0.8])
        feats = np.stack([panel.values[c] for c in FS.FS5.columns])
        log_s = beta[0] + np.tensordot(beta[1:], feats, axes=1)
        values = dict(panel.values)
        values["s"] = np.exp(log_s)
        truth = np.exp(log_s).copy()
        for (i, t) in missing:
            values["s"][i, t] = np.nan
        return MarketPanel(panel.counterparties, panel.dates, values), truth

    def test_noiseless_recovery(self):
        panel, truth = self._panel_with_loglinear_s()
        filled = impute_five_year_rate(panel)
        rel = np.abs(filled.values["s"] - truth) / truth
        assert rel.max() < 1e-8

    def test_observed_untouched_and_idempotent(self):
        panel, _ = self._panel_with_loglinear_s(seed=1)
        obs = ~panel.missing_s_mask()
        filled = impute_five_year_rate(panel)
        assert np.array_equal(filled.values["s"][obs], panel.values["s"][obs])
        again = impute_five_year_rate(filled)
        assert again is filled  # nothing left to fill

    def test_fills_from_the_fs5_columns_only(self):
        panel, _ = self._panel_with_loglinear_s(seed=2)
        filled = impute_five_year_rate(panel)
        values = {c: v if c == "s" or c in FS.FS5.columns else v * 0.5
                  for c, v in panel.values.items()}
        moved = impute_five_year_rate(
            MarketPanel(panel.counterparties, panel.dates, values))
        assert np.array_equal(moved.values["s"], filled.values["s"])

    def test_insufficient_observed(self):
        panel = tiny_panel(seed=10, n_cp=1, n_days=5,
                           missing_s=[(0, t) for t in range(4)])
        with pytest.raises(TooFewSamples, match="1 observed rates < 5 needed for basis FS5"):
            impute_five_year_rate(panel)

    def test_no_missing_returns_same_panel(self):
        panel = tiny_panel(seed=11)
        assert impute_five_year_rate(panel) is panel
