"""Synthetic panel generation, CSV round trips, categories and records."""
import numpy as np
import pytest

from cdsproxy.baselines import fit_cross_sectional
from cdsproxy.core import (
    HV_COLUMNS,
    IV_COLUMNS,
    PANEL_COLUMNS,
    PD_COLUMNS,
    FeatureSelection,
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
    MissingFiveYearRate,
    RangeViolation,
    SchemaViolation,
)
from cdsproxy.evaluation import correlation_histogram


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
        {"idiosyncratic_scale": 0.0},
        {"base_spacing": -1.0},
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
        panel.values["s"] = s
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
        panel.values["s"] = s
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
        panel.values["s"] = s
        records = records_from_panel(panel)
        assert records[2].spread == s[2, 2]

    def test_counterparty_without_any_rate_rejected(self):
        panel = generate_panel(GeneratorConfig(n_counterparties=3, n_days=4,
                                               seed=12))
        s = panel.values["s"].copy()
        s[0, :] = np.nan
        panel.values["s"] = s
        with pytest.raises(MissingFiveYearRate, match="CP000"):
            records_from_panel(panel)

    def test_default_records_support_the_regression_baseline(self):
        # the generated category design must be full rank so the
        # cross-sectional baseline runs on default panels
        panel = generate_panel(GeneratorConfig(seed=14))
        records = records_from_panel(panel)
        model = fit_cross_sectional(records)
        assert np.isfinite(model.intercept)
