"""Curve mapping and the cross-sectional log-spread regression."""
import itertools
import math
import statistics

import numpy as np
import pytest

from cdsproxy.baselines import (
    CATEGORY_FIELDS,
    CdsContractRecord,
    CrossSectionalModel,
    ProxyStatistic,
    bucket_key,
    curve_mapping_proxy,
    curve_mapping_table,
    fit_cross_sectional,
)
from cdsproxy.errors import (
    BadConfig,
    NotPositiveDefinite,
    RangeViolation,
    TooFewSamples,
    UnknownCategoryLevel,
)


def record(name="CP", spread=100.0, region="Europe", sector="Energy",
           rating="AA", seniority="Senior"):
    return CdsContractRecord(counterparty=name, spread=spread, region=region,
                             sector=sector, rating=rating, seniority=seniority)


class TestCurveMapping:
    def test_odd_bucket_median_is_middle_value(self):
        assert curve_mapping_proxy([100.0, 200.0, 300.0],
                                   ProxyStatistic.MEDIAN) == 200.0

    def test_mean_of_two(self):
        assert curve_mapping_proxy([100.0, 200.0], ProxyStatistic.MEAN) == 150.0

    def test_even_bucket_median_averages_the_middle_pair(self):
        assert curve_mapping_proxy([100.0, 200.0, 300.0, 400.0],
                                   ProxyStatistic.MEDIAN) == 250.0

    def test_empty_bucket_rejected(self):
        with pytest.raises(TooFewSamples, match="curve mapping needs at least one spread"):
            curve_mapping_proxy([], ProxyStatistic.MEAN)

    @pytest.mark.parametrize("statistic", list(ProxyStatistic))
    def test_permutation_invariant_and_inside_the_range(self, statistic):
        rng = np.random.default_rng(7)
        for _ in range(20):
            bucket = list(rng.uniform(10.0, 500.0, size=rng.integers(1, 9)))
            value = curve_mapping_proxy(bucket, statistic)
            shuffled = list(bucket)
            rng.shuffle(shuffled)
            assert curve_mapping_proxy(shuffled, statistic) == value
            assert min(bucket) <= value <= max(bucket)

    def test_mean_matches_exact_summation(self):
        bucket = [0.1] * 10
        assert curve_mapping_proxy(bucket, ProxyStatistic.MEAN) == (
            math.fsum(bucket) / 10)

    def test_table_groups_by_region_sector_rating(self):
        records = [
            record("A", 100.0, rating="AA"),
            record("B", 300.0, rating="AA"),
            record("C", 50.0, rating="BB"),
        ]
        table = curve_mapping_table(records, ProxyStatistic.MEAN)
        assert table[("Europe", "Energy", "AA")] == 200.0
        assert table[("Europe", "Energy", "BB")] == 50.0
        assert list(table) == sorted(table)

    def test_bucket_key_ignores_seniority(self):
        a = record("A", seniority="Senior")
        b = record("B", seniority="Subordinated")
        assert bucket_key(a) == bucket_key(b)
        assert len(curve_mapping_table([a, b])) == 1

    def test_nonpositive_spread_rejected(self):
        with pytest.raises(RangeViolation):
            record(spread=0.0)
        with pytest.raises(RangeViolation):
            record(spread=-5.0)
        with pytest.raises(RangeViolation):
            record(spread=float("inf"))


def model_prediction_oracle(records, query):
    """Least squares via numpy on the same sorted-levels/drop-first design."""
    levels = {f: sorted({getattr(r, f) for r in records})
              for f in CATEGORY_FIELDS}
    columns = [(f, lv) for f in CATEGORY_FIELDS for lv in levels[f][1:]]
    design = np.ones((len(records), 1 + len(columns)))
    for j, (f, lv) in enumerate(columns, start=1):
        design[:, j] = [getattr(r, f) == lv for r in records]
    beta, *_ = np.linalg.lstsq(design, np.log([r.spread for r in records]),
                               rcond=None)
    fitted = beta[0]
    for j, (f, lv) in enumerate(columns, start=1):
        if query[f] == lv:
            fitted += beta[j]
    return math.exp(fitted), beta


class TestCrossSectional:
    def factorial_records(self, coef, intercept, noise=None, seed=0):
        """Noiseless (or seeded-noisy) spreads from known level effects."""
        rng = np.random.default_rng(seed)
        records = []
        combos = itertools.product(("Asia", "Europe"),
                                   ("Energy", "Utilities"),
                                   ("AA", "BB"),
                                   ("Senior", "Subordinated"))
        for i, (region, sector, rating, seniority) in enumerate(combos):
            log_s = (intercept + coef.get(region, 0.0) + coef.get(sector, 0.0)
                     + coef.get(rating, 0.0) + coef.get(seniority, 0.0))
            if noise is not None:
                log_s += rng.normal(0.0, noise)
            records.append(record(f"CP{i}", math.exp(log_s), region=region,
                                  sector=sector, rating=rating,
                                  seniority=seniority))
        return records

    def test_single_combination_predicts_the_geometric_mean(self):
        records = [record("A", 100.0), record("B", 400.0)]
        model = fit_cross_sectional(records)
        predicted = model.predict(records[0].categories())
        assert predicted == pytest.approx(200.0, rel=1e-10)

    def test_noiseless_one_combination_reproduces_the_spread(self):
        records = [record("A", 123.0), record("B", 123.0)]
        model = fit_cross_sectional(records)
        assert model.predict(records[0].categories()) == pytest.approx(
            123.0, rel=1e-10)

    def test_known_coefficients_recovered_exactly(self):
        coef = {"Europe": 0.4, "Utilities": -0.3, "BB": 0.8,
                "Subordinated": 0.25}
        records = self.factorial_records(coef, intercept=math.log(120.0))
        model = fit_cross_sectional(records)
        assert model.intercept == pytest.approx(math.log(120.0), abs=1e-8)
        assert model.coefficient("region", "Europe") == pytest.approx(
            0.4, abs=1e-8)
        assert model.coefficient("sector", "Utilities") == pytest.approx(
            -0.3, abs=1e-8)
        assert model.coefficient("rating", "BB") == pytest.approx(0.8,
                                                                  abs=1e-8)
        assert model.coefficient("seniority", "Subordinated") == pytest.approx(
            0.25, abs=1e-8)

    def test_reference_levels_are_first_sorted_and_carry_zero(self):
        coef = {"Europe": 0.4, "Utilities": -0.3, "BB": 0.8,
                "Subordinated": 0.25}
        records = self.factorial_records(coef, intercept=5.0, noise=0.1)
        model = fit_cross_sectional(records)
        references = {"region": "Asia", "sector": "Energy", "rating": "AA",
                      "seniority": "Senior"}
        assert list(model.effects) == list(CATEGORY_FIELDS)
        for field, reference in references.items():
            assert min(model.effects[field]) == reference
            assert model.effects[field][reference] == 0.0
            assert model.coefficient(field, reference) == 0.0
            assert all(value != 0.0 for level, value in
                       model.effects[field].items() if level != reference)

    def test_effects_are_read_only(self):
        model = fit_cross_sectional([record("A", 100.0),
                                     record("B", 200.0, rating="BB")])
        with pytest.raises(TypeError):
            model.effects["rating"] = {"AA": 1.0}
        with pytest.raises(TypeError):
            model.effects["rating"]["BB"] = 1.0
        with pytest.raises(TypeError):
            del model.effects["rating"]["AA"]
        assert model.coefficient("rating", "AA") == 0.0

    def test_effects_copy_the_given_tables(self):
        table = {"AA": 0.0, "BB": 0.5}
        model = CrossSectionalModel(intercept=1.0, effects={
            field: table for field in CATEGORY_FIELDS})
        table["BB"] = 9.0
        assert model.coefficient("rating", "BB") == 0.5

    def test_noisy_fit_matches_least_squares_oracle(self):
        coef = {"Europe": 0.2, "Utilities": 0.5, "BB": -0.4,
                "Subordinated": 0.1}
        records = self.factorial_records(coef, intercept=4.0, noise=0.3,
                                         seed=11) * 2
        model = fit_cross_sectional(records)
        for query_record in records[:4]:
            expected, _ = model_prediction_oracle(records,
                                                  query_record.categories())
            assert model.predict(query_record.categories()) == pytest.approx(
                expected, rel=1e-8)

    def test_aliased_categories_rejected(self):
        # region determines sector exactly -> dummies collide
        records = [record("A", 100.0, region="Asia", sector="Energy"),
                   record("B", 150.0, region="Asia", sector="Energy"),
                   record("C", 200.0, region="Europe", sector="Utilities"),
                   record("D", 250.0, region="Europe", sector="Utilities")]
        with pytest.raises(NotPositiveDefinite, match="category dummies are collinear"):
            fit_cross_sectional(records)

    def test_unknown_level_rejected_at_prediction(self):
        records = [record("A", 100.0), record("B", 200.0, rating="BB")]
        model = fit_cross_sectional(records)
        query = records[0].categories() | {"rating": "CCC"}
        with pytest.raises(UnknownCategoryLevel, match="rating"):
            model.predict(query)
        with pytest.raises(UnknownCategoryLevel,
                           match="known levels: AA, BB$"):
            model.coefficient("rating", "CCC")

    def test_missing_field_rejected_at_prediction(self):
        records = [record("A", 100.0), record("B", 200.0, rating="BB")]
        model = fit_cross_sectional(records)
        query = records[0].categories()
        del query["sector"]
        with pytest.raises(BadConfig, match="sector"):
            model.predict(query)

    def test_unknown_field_rejected_by_coefficient(self):
        model = fit_cross_sectional([record("A", 100.0),
                                     record("B", 200.0, rating="BB")])
        with pytest.raises(BadConfig, match="'currency' is not a category field"):
            model.coefficient("currency", "USD")

    def test_no_records_rejected(self):
        with pytest.raises(TooFewSamples, match="regression needs at least one record"):
            fit_cross_sectional([])

    def test_members_of_one_cell_share_both_baseline_proxies(self):
        records = [record("A", 80.0, rating="AA"),
                   record("B", 120.0, rating="AA"),
                   record("C", 200.0, rating="BB"),
                   record("D", 300.0, rating="BB")]
        model = fit_cross_sectional(records)
        table = curve_mapping_table(records, ProxyStatistic.MEDIAN)
        for a, b in [(0, 1), (2, 3)]:
            assert bucket_key(records[a]) == bucket_key(records[b])
            assert table[bucket_key(records[a])] == table[bucket_key(records[b])]
            assert (model.predict(records[a].categories())
                    == model.predict(records[b].categories()))

    def test_median_matches_statistics_module(self):
        rng = np.random.default_rng(13)
        for size in range(1, 9):
            bucket = list(rng.uniform(1.0, 900.0, size=size))
            assert curve_mapping_proxy(bucket, ProxyStatistic.MEDIAN) == (
                statistics.median(bucket))
