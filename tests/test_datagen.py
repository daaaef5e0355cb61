"""Synthetic panel generation, CSV round trips, categories and records."""
import functools
import pathlib
import tempfile

import numpy as np
import pytest

from cdsproxy.baselines import fit_cross_sectional
from cdsproxy.core import (
    HV_COLUMNS,
    IV_COLUMNS,
    PANEL_COLUMNS,
    PD_COLUMNS,
    FeatureSelection,
    MarketPanel,
    build_dataset,
)
from cdsproxy.datagen import (
    RATINGS,
    REGIONS,
    SECTORS,
    SENIORITIES,
    GeneratorConfig,
    assign_categories,
    counterparty_names,
    generate_panel,
    read_panel,
    records_from_panel,
    write_panel,
)
from cdsproxy.errors import (
    BadConfig,
    CdsProxyError,
    MissingFiveYearRate,
    RangeViolation,
    SchemaViolation,
)
from cdsproxy.evaluation import correlation_histogram

import loop_reference as ref


def pooled_correlations(panel):
    ds = build_dataset(panel, FeatureSelection.FS1)
    return np.asarray(correlation_histogram(ds).values)


class TestGeneratorConfig:
    def test_defaults(self):
        config = GeneratorConfig()
        assert config.n_counterparties == 5
        assert config.n_days == 100
        assert 0.0 <= config.factor_loading < 1.0

    @pytest.mark.parametrize("kwargs", [
        {"n_counterparties": 1},
        {"n_days": 0},
        {"factor_loading": 1.0},
        {"factor_loading": -0.1},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(BadConfig):
            GeneratorConfig(**kwargs)


class TestGeneratePanel:
    def test_equal_seeds_are_bit_identical(self):
        a = generate_panel(GeneratorConfig(seed=42))
        b = generate_panel(GeneratorConfig(seed=42))
        assert a.counterparties == b.counterparties
        assert a.dates == b.dates
        for col in PANEL_COLUMNS:
            assert np.array_equal(a.values[col], b.values[col])

    def test_different_seeds_differ(self):
        a = generate_panel(GeneratorConfig(seed=1))
        b = generate_panel(GeneratorConfig(seed=2))
        assert not np.array_equal(a.values["s"], b.values["s"])

    def test_shapes_and_identifiers(self):
        panel = generate_panel(GeneratorConfig(n_counterparties=4, n_days=30))
        assert panel.n_counterparties == 4
        assert panel.n_days == 30
        assert panel.counterparties == ("CP000", "CP001", "CP002", "CP003")
        assert list(panel.dates) == sorted(panel.dates)
        for col in PANEL_COLUMNS:
            assert panel.values[col].shape == (4, 30)

    def test_values_respect_market_ranges(self):
        panel = generate_panel(GeneratorConfig(seed=3))
        assert np.all(panel.values["s"] > 0.0)
        for col in PD_COLUMNS:
            assert np.all(panel.values[col] > 0.0)
            assert np.all(panel.values[col] < 1.0)
        for col in IV_COLUMNS + HV_COLUMNS:
            assert np.all(panel.values[col] > 0.0)

    def test_default_probabilities_increase_with_horizon(self):
        panel = generate_panel(GeneratorConfig(seed=4))
        stacked = np.stack([panel.values[c] for c in PD_COLUMNS])
        assert np.all(np.diff(stacked, axis=0) > 0.0)

    def test_zero_loading_leaves_features_nearly_uncorrelated(self):
        config = GeneratorConfig(factor_loading=0.0, n_days=1000, seed=5)
        correlations = pooled_correlations(generate_panel(config))
        assert np.median(np.abs(correlations)) <= 0.2

    def test_default_loading_gives_the_high_correlation_regime(self):
        correlations = pooled_correlations(generate_panel(GeneratorConfig()))
        assert np.mean(correlations > 0.7) >= 0.8

    def test_correlation_regime_is_monotone_in_the_loading(self):
        medians = []
        for loading in (0.0, 0.3, 0.6, 0.9):
            config = GeneratorConfig(factor_loading=loading, n_days=300,
                                     seed=6)
            medians.append(np.median(pooled_correlations(
                generate_panel(config))))
        assert all(a <= b + 1e-12 for a, b in zip(medians, medians[1:]))


class TestPanelCsv:
    def test_round_trip_reproduces_the_panel_exactly(self, tmp_path):
        panel = generate_panel(GeneratorConfig(n_counterparties=3, n_days=7,
                                               seed=8))
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        loaded = read_panel(path)
        assert loaded.counterparties == panel.counterparties
        assert loaded.dates == panel.dates
        for col in PANEL_COLUMNS:
            assert np.array_equal(loaded.values[col], panel.values[col])

    def test_missing_rates_survive_the_round_trip(self, tmp_path):
        panel = generate_panel(GeneratorConfig(n_counterparties=3, n_days=4,
                                               seed=9))
        s = panel.values["s"].copy()
        s[1, :] = np.nan
        panel = MarketPanel(counterparties=panel.counterparties,
                            dates=panel.dates, values={**panel.values, "s": s})
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        loaded = read_panel(path)
        assert np.array_equal(loaded.missing_s_mask(), panel.missing_s_mask())
        observed = np.isfinite(s)
        assert np.array_equal(loaded.values["s"][observed], s[observed])

    def test_file_without_s_column_loads_with_all_rates_missing(self, tmp_path):
        path = tmp_path / "panel.csv"
        columns = [c for c in ("counterparty", "date", *PANEL_COLUMNS)
                   if c != "s"]
        lines = [",".join(columns)]
        for name in ("A", "B"):
            for date in ("2023-01-02", "2023-01-03"):
                lines.append(",".join([name, date]
                                      + ["0.5"] * len(PD_COLUMNS)
                                      + ["0.3"] * len(IV_COLUMNS + HV_COLUMNS)))
        path.write_text("\n".join(lines) + "\n")
        panel = read_panel(path)
        assert np.all(panel.missing_s_mask())

    def test_row_and_column_order_do_not_matter(self, tmp_path):
        panel = generate_panel(GeneratorConfig(n_counterparties=4, n_days=6,
                                               seed=15))
        s = panel.values["s"].copy()
        s[3, 1:4] = np.nan
        panel = MarketPanel(counterparties=panel.counterparties,
                            dates=panel.dates, values={**panel.values, "s": s})
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        header, *rows = path.read_text().splitlines()
        rng = np.random.default_rng(16)
        rows = [rows[i] for i in rng.permutation(len(rows))]
        columns = rng.permutation(len(header.split(",")))
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join(
            ",".join(np.array(line.split(","), dtype=object)[columns])
            for line in [header, *rows]) + "\n")
        loaded, reordered = read_panel(path), read_panel(shuffled)
        assert reordered.counterparties == loaded.counterparties
        assert reordered.dates == loaded.dates
        for col in PANEL_COLUMNS:
            assert np.array_equal(reordered.values[col], loaded.values[col],
                                  equal_nan=True)

    def write_grid(self, path, rows, header=None):
        if header is None:
            header = ",".join(("counterparty", "date", *PANEL_COLUMNS))
        path.write_text("\n".join([header, *rows]) + "\n")

    def good_row(self, name="A", date="2023-01-02", **overrides):
        cells = {"s": "100.0"}
        cells.update({c: "0.1" for c in PD_COLUMNS})
        cells.update({c: "0.3" for c in IV_COLUMNS + HV_COLUMNS})
        cells.update(overrides)
        return ",".join([name, date] + [cells[c] for c in PANEL_COLUMNS])

    def test_out_of_range_probability_names_the_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_grid(path, [self.good_row(pd_1y="1.5")])
        with pytest.raises(RangeViolation, match="row 2.*pd_1y"):
            read_panel(path)

    def test_negative_volatility_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_grid(path, [self.good_row(hv_2m="-0.4")])
        with pytest.raises(RangeViolation, match="hv_2m"):
            read_panel(path)

    def test_non_numeric_cell_rejected_with_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_grid(path, [self.good_row(), self.good_row(
            date="2023-01-03", iv_3m="oops")])
        with pytest.raises(SchemaViolation, match="row 3.*iv_3m"):
            read_panel(path)

    def test_missing_required_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        columns = [c for c in ("counterparty", "date", *PANEL_COLUMNS)
                   if c != "pd_5y"]
        self.write_grid(path, [], header=",".join(columns))
        with pytest.raises(SchemaViolation, match="pd_5y"):
            read_panel(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(("counterparty", "date", *PANEL_COLUMNS, "mystery"))
        self.write_grid(path, [], header=header)
        with pytest.raises(SchemaViolation, match="mystery"):
            read_panel(path)

    def test_repeated_column_rejected(self, tmp_path):
        # a second s column would otherwise load, its cells never read
        path = tmp_path / "bad.csv"
        header = ",".join(("counterparty", "date", *PANEL_COLUMNS, "s"))
        self.write_grid(path, [self.good_row() + ",0.01"], header=header)
        with pytest.raises(SchemaViolation,
                           match=r"panel file repeats columns: \['s'\]"):
            read_panel(path)

    def test_wrong_field_count_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_grid(path, [self.good_row(),
                               self.good_row(date="2023-01-03") + ",0.3"])
        with pytest.raises(SchemaViolation,
                           match="row 3: expected 18 fields, got 19"):
            read_panel(path)

    def test_duplicate_observation_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_grid(path, [self.good_row(), self.good_row()])
        with pytest.raises(SchemaViolation, match="duplicate"):
            read_panel(path)

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_grid(path, [
            self.good_row("A", "2023-01-02"),
            self.good_row("A", "2023-01-03"),
            self.good_row("B", "2023-01-02"),
        ])
        with pytest.raises(SchemaViolation, match="missing observation for "
                           "counterparty 'B' on 2023-01-03"):
            read_panel(path)

    def test_empty_non_rate_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_grid(path, [self.good_row(pd_6m="")])
        with pytest.raises(SchemaViolation, match="pd_6m"):
            read_panel(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_grid(path, [])
        with pytest.raises(SchemaViolation, match="no observations"):
            read_panel(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaViolation):
            read_panel(path)

    @pytest.mark.parametrize("text", ["inf", "-inf", "Infinity"])
    def test_infinite_rate_rejected_with_its_cell(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        self.write_grid(path, [self.good_row(), self.good_row(
            date="2023-01-03", s=text)])
        with pytest.raises(RangeViolation, match=r"^row 3, column s: spread "
                           r"must be finite, got -?inf$"):
            read_panel(path)

    @pytest.mark.parametrize("text", ["0", "0.0", "-0.0", "-2.5"])
    def test_rate_not_above_zero_rejected_with_its_cell(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        self.write_grid(path, [self.good_row(), self.good_row(
            date="2023-01-03", s=text)])
        with pytest.raises(RangeViolation, match=rf"^row 3, column s: spread "
                           rf"must be > 0, got {float(text)}$"):
            read_panel(path)

    @pytest.mark.parametrize("column", ["pd_1y", "iv_12m", "hv_2m"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_probability_or_volatility_is_a_missing_value(
            self, tmp_path, column, text):
        path = tmp_path / "bad.csv"
        self.write_grid(path, [self.good_row(), self.good_row(
            date="2023-01-03", **{column: text})])
        with pytest.raises(SchemaViolation, match=rf"^row 3, column {column}: "
                           rf"missing value: {text}$"):
            read_panel(path)


def read_outcome(read, path):
    """The panel a reader returns, or the class and message it raises."""
    try:
        return read(path)
    except CdsProxyError as exc:
        return type(exc), str(exc)


class TestPanelCsvAgainstLoopReference:
    """read_panel and write_panel against cell-by-cell copies of their
    earlier code (loop_reference): the same files, the same arrays and the
    same first fault. Files hold 1,500 rows, so they span three of the
    512-row blocks read_panel converts at a time (rows 2-513, 514-1025 and
    1026-1501)."""

    @staticmethod
    @functools.cache
    def panel(seed):
        panel = generate_panel(GeneratorConfig(n_counterparties=6, n_days=250,
                                               seed=seed))
        s = panel.values["s"].copy()
        rng = np.random.default_rng(seed)
        s[rng.random(s.shape) < 0.2] = np.nan
        s[1, :] = np.nan
        panel = MarketPanel(counterparties=panel.counterparties,
                            dates=panel.dates, values={**panel.values, "s": s})
        return panel

    @staticmethod
    @functools.cache
    def text(seed):
        with tempfile.TemporaryDirectory() as folder:
            path = pathlib.Path(folder) / "panel.csv"
            ref.write_panel(TestPanelCsvAgainstLoopReference.panel(seed), path)
            return path.read_text()

    def lines(self, tmp_path, seed=1):
        return [line.split(",") for line in self.text(seed).splitlines()]

    def assert_same_outcome(self, tmp_path, lines):
        path = tmp_path / "case.csv"
        path.write_text("\n".join(",".join(cells) for cells in lines) + "\n")
        expected = read_outcome(ref.read_panel, path)
        got = read_outcome(read_panel, path)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert got.counterparties == expected.counterparties
        assert got.dates == expected.dates
        for col in PANEL_COLUMNS:
            assert np.array_equal(got.values[col], expected.values[col],
                                  equal_nan=True)

    @staticmethod
    def set_cell(lines, row, column, text):
        lines[row - 1][lines[0].index(column)] = text

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_files_are_byte_identical(self, tmp_path, seed):
        panel = self.panel(seed)
        write_panel(panel, tmp_path / "new.csv")
        ref.write_panel(panel, tmp_path / "ref.csv")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_files_read_to_the_same_arrays(self, tmp_path, seed):
        lines = self.lines(tmp_path, seed)
        self.assert_same_outcome(tmp_path, lines)
        header, *rows = lines
        order = np.random.default_rng(seed).permutation(len(rows))
        self.assert_same_outcome(tmp_path, [header] + [rows[i] for i in order])

    def test_file_without_rates_reads_to_the_same_arrays(self, tmp_path):
        lines = self.lines(tmp_path)
        at = lines[0].index("s")
        self.assert_same_outcome(tmp_path,
                                 [cells[:at] + cells[at + 1:] for cells in lines])

    @pytest.mark.parametrize("row", [2, 513, 514, 1501])
    @pytest.mark.parametrize("column, text", [
        ("iv_3m", "oops"), ("pd_6m", ""), ("hv_6m", ""), ("pd_1y", "1.5"),
        ("pd_5y", "-0.1"), ("hv_2m", "-0.4"), ("s", "-3.0"), ("s", "0"), ("s", "1e"),
    ])
    def test_bad_cell_raises_the_same_fault(self, tmp_path, row, column, text):
        lines = self.lines(tmp_path)
        self.set_cell(lines, row, column, text)
        self.assert_same_outcome(tmp_path, lines)

    @pytest.mark.parametrize("row", [2, 513, 514, 1501])
    @pytest.mark.parametrize("fault", ["short", "long", "duplicate"])
    def test_structural_fault_raises_the_same_fault(self, tmp_path, row,
                                                    fault):
        lines = self.lines(tmp_path)
        if fault == "short":
            lines[row - 1] = lines[row - 1][:-1]
        elif fault == "long":
            lines[row - 1] = lines[row - 1] + ["0.3"]
        else:
            lines[row - 1] = lines[row - 1 - 1] if row > 2 else lines[row]
        self.assert_same_outcome(tmp_path, lines)

    @pytest.mark.parametrize("cell_row, fault_row", [
        (10, 12), (12, 10), (513, 514), (514, 513), (1024, 1027),
        (1027, 1024), (1030, 1030), (2, 1501), (1501, 2),
    ])
    @pytest.mark.parametrize("fault", ["short", "duplicate"])
    def test_first_of_a_bad_cell_and_a_structural_fault_is_raised(
            self, tmp_path, cell_row, fault_row, fault):
        lines = self.lines(tmp_path)
        self.set_cell(lines, cell_row, "pd_2y", "x")
        if fault == "short":
            lines[fault_row - 1] = lines[fault_row - 1][:-2]
        else:
            lines[fault_row - 1] = list(lines[fault_row - 2 if fault_row > 2
                                              else 2])
        self.assert_same_outcome(tmp_path, lines)

    @pytest.mark.parametrize("first, second", [
        (("pd_1y", "1.5"), ("pd_1y", "oops")),
        (("pd_1y", "oops"), ("pd_1y", "1.5")),
        (("hv_1m", ""), ("iv_3m", "-1")),
        (("s", "-1"), ("hv_6m", "x")),
    ])
    @pytest.mark.parametrize("rows", [(40, 50), (50, 40), (1025, 1026)])
    def test_first_of_two_bad_cells_is_raised(self, tmp_path, first, second,
                                              rows):
        lines = self.lines(tmp_path)
        self.set_cell(lines, rows[0], *first)
        self.set_cell(lines, rows[1], *second)
        self.assert_same_outcome(tmp_path, lines)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_bad_cells_in_one_row_under_a_permuted_header(self, tmp_path,
                                                              seed):
        lines = self.lines(tmp_path)
        order = np.random.default_rng(seed).permutation(len(lines[0]))
        lines = [[cells[i] for i in order] for cells in lines]
        self.set_cell(lines, 700, "hv_2m", "oops")
        self.set_cell(lines, 700, "pd_1y", "1.5")
        self.assert_same_outcome(tmp_path, lines)
        self.set_cell(lines, 700, "pd_1y", "0.5")
        self.set_cell(lines, 700, "iv_6m", "")
        self.assert_same_outcome(tmp_path, lines)


class TestCategoriesAndRecords:
    def test_counterparty_names_are_sorted_and_padded(self):
        names = counterparty_names(12)
        assert list(names) == sorted(names)
        assert names[0] == "CP000"
        assert len(counterparty_names(2000)[0]) == len("CP") + 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 30])
    def test_every_cell_holds_at_least_two_counterparties(self, n):
        table = assign_categories(counterparty_names(n))
        cells = {}
        for name, cats in table.items():
            key = tuple(cats[f] for f in ("region", "sector", "rating",
                                          "seniority"))
            cells.setdefault(key, []).append(name)
        assert all(len(members) >= 2 for members in cells.values())
        assert len(cells) == max(1, n // 2)

    def test_levels_come_from_the_declared_vocabularies(self):
        table = assign_categories(counterparty_names(40))
        for cats in table.values():
            assert cats["region"] in REGIONS
            assert cats["sector"] in SECTORS
            assert cats["rating"] in RATINGS
            assert cats["seniority"] in SENIORITIES

    def test_records_take_the_latest_observed_rate(self):
        panel = generate_panel(GeneratorConfig(n_counterparties=4, n_days=6,
                                               seed=10))
        records = records_from_panel(panel)
        assert [r.counterparty for r in records] == list(panel.counterparties)
        for i, r in enumerate(records):
            assert r.spread == panel.values["s"][i, -1]

    def test_records_skip_back_to_the_last_observed_rate(self):
        panel = generate_panel(GeneratorConfig(n_counterparties=3, n_days=5,
                                               seed=11))
        s = panel.values["s"].copy()
        s[2, -2:] = np.nan
        panel = MarketPanel(counterparties=panel.counterparties,
                            dates=panel.dates, values={**panel.values, "s": s})
        records = records_from_panel(panel)
        assert records[2].spread == s[2, 2]

    def test_counterparty_without_any_rate_rejected(self):
        panel = generate_panel(GeneratorConfig(n_counterparties=3, n_days=4,
                                               seed=12))
        s = panel.values["s"].copy()
        s[0, :] = np.nan
        panel = MarketPanel(counterparties=panel.counterparties,
                            dates=panel.dates, values={**panel.values, "s": s})
        with pytest.raises(MissingFiveYearRate, match="CP000"):
            records_from_panel(panel)

    def test_categories_without_a_counterparty_rejected(self):
        panel = generate_panel(GeneratorConfig(n_counterparties=3, n_days=4,
                                               seed=12))
        categories = assign_categories(panel.counterparties)
        del categories["CP001"]
        with pytest.raises(BadConfig, match="CP001"):
            records_from_panel(panel, categories)

    def test_categories_without_a_field_rejected(self):
        panel = generate_panel(GeneratorConfig(n_counterparties=4, n_days=4,
                                               seed=1))
        categories = assign_categories(panel.counterparties)
        del categories["CP001"]["sector"]
        del categories["CP001"]["rating"]
        with pytest.raises(BadConfig, match=r"'CP001' lack the fields "
                                            r"\['rating', 'sector'\]"):
            records_from_panel(panel, categories)

    def test_default_records_support_the_regression_baseline(self):
        # the generated category design must be full rank so the
        # cross-sectional baseline runs on default panels
        panel = generate_panel(GeneratorConfig(seed=14))
        records = records_from_panel(panel)
        model = fit_cross_sectional(records)
        assert np.isfinite(model.intercept)
