"""Golden results for the incumbent proxies, pinned as float hex.

Records are built with `records_from_panel` from panels labelled by
`assign_categories`: `GeneratorConfig()`, and the 20-name x 250-day panel
at seeds 1 and 23. On the large panels the baselines see only the first
16 names, as perfbench's `large-panel` workload fits them on its liquid
names, and the cross-sectional proxy is read for all 20. A refactor of
`baselines` that moves any curve-mapping bucket or any cross-sectional
proxy by one bit fails here.
"""
import pytest

from cdsproxy import baselines, datagen
from cdsproxy.datagen import GeneratorConfig

GOLDEN_PANELS = {
    "default": (GeneratorConfig(), None),
    "large-seed1": (GeneratorConfig(n_counterparties=20, n_days=250, seed=1), 16),
    "large-seed23": (GeneratorConfig(n_counterparties=20, n_days=250, seed=23), 16),
}

# panel -> statistic -> (region, sector, rating) bucket -> proxy spread
GOLDEN_CURVE = {
    'default': {
        'mean': {
            ('Asia', 'Energy', 'AA'): '0x1.32874b6256529p+7',
            ('Asia', 'Energy', 'AAA'): '0x1.041fff0ccfa6cp+7',
        },
        'median': {
            ('Asia', 'Energy', 'AA'): '0x1.30e94edd3be19p+7',
            ('Asia', 'Energy', 'AAA'): '0x1.041fff0ccfa6cp+7',
        },
    },
    'large-seed1': {
        'mean': {
            ('Asia', 'Energy', 'AA'): '0x1.fcceb97c1c0c6p+6',
            ('Asia', 'Energy', 'AAA'): '0x1.f2f34983d8c82p+6',
            ('Asia', 'Energy', 'BB'): '0x1.095f224f460edp+7',
            ('Asia', 'Energy', 'BBB'): '0x1.07987eaf03164p+7',
            ('Asia', 'Energy', 'CC'): '0x1.22fa52781797ap+7',
            ('Asia', 'Energy', 'CCC'): '0x1.1f8c7530cb3dep+7',
            ('Europe', 'Energy', 'AA'): '0x1.ed0626e5d7438p+6',
            ('Europe', 'Energy', 'AAA'): '0x1.f5d1fd0b9167ap+6',
            ('Europe', 'Energy', 'BB'): '0x1.056f03532d074p+7',
            ('Europe', 'Energy', 'BBB'): '0x1.183d43e439320p+7',
        },
        'median': {
            ('Asia', 'Energy', 'AA'): '0x1.fcceb97c1c0c6p+6',
            ('Asia', 'Energy', 'AAA'): '0x1.f2f34983d8c82p+6',
            ('Asia', 'Energy', 'BB'): '0x1.095f224f460edp+7',
            ('Asia', 'Energy', 'BBB'): '0x1.07987eaf03164p+7',
            ('Asia', 'Energy', 'CC'): '0x1.22fa52781797ap+7',
            ('Asia', 'Energy', 'CCC'): '0x1.1f8c7530cb3dep+7',
            ('Europe', 'Energy', 'AA'): '0x1.ed0626e5d7438p+6',
            ('Europe', 'Energy', 'AAA'): '0x1.f5d1fd0b9167ap+6',
            ('Europe', 'Energy', 'BB'): '0x1.056f03532d074p+7',
            ('Europe', 'Energy', 'BBB'): '0x1.183d43e439320p+7',
        },
    },
    'large-seed23': {
        'mean': {
            ('Asia', 'Energy', 'AA'): '0x1.12cfd7b37fe67p+7',
            ('Asia', 'Energy', 'AAA'): '0x1.0db6e42c5c1d4p+7',
            ('Asia', 'Energy', 'BB'): '0x1.27acef890d560p+7',
            ('Asia', 'Energy', 'BBB'): '0x1.1e774ab85bb0fp+7',
            ('Asia', 'Energy', 'CC'): '0x1.3613efe159d2ep+7',
            ('Asia', 'Energy', 'CCC'): '0x1.30fcba8e9bb70p+7',
            ('Europe', 'Energy', 'AA'): '0x1.192a041704e4fp+7',
            ('Europe', 'Energy', 'AAA'): '0x1.11d18c510a1ebp+7',
            ('Europe', 'Energy', 'BB'): '0x1.29ffbe0bff664p+7',
            ('Europe', 'Energy', 'BBB'): '0x1.231228ad10de2p+7',
        },
        'median': {
            ('Asia', 'Energy', 'AA'): '0x1.12cfd7b37fe67p+7',
            ('Asia', 'Energy', 'AAA'): '0x1.0db6e42c5c1d4p+7',
            ('Asia', 'Energy', 'BB'): '0x1.27acef890d560p+7',
            ('Asia', 'Energy', 'BBB'): '0x1.1e774ab85bb0fp+7',
            ('Asia', 'Energy', 'CC'): '0x1.3613efe159d2ep+7',
            ('Asia', 'Energy', 'CCC'): '0x1.30fcba8e9bb70p+7',
            ('Europe', 'Energy', 'AA'): '0x1.192a041704e4fp+7',
            ('Europe', 'Energy', 'AAA'): '0x1.11d18c510a1ebp+7',
            ('Europe', 'Energy', 'BB'): '0x1.29ffbe0bff664p+7',
            ('Europe', 'Energy', 'BBB'): '0x1.231228ad10de2p+7',
        },
    },
}

# panel -> cross-sectional proxy of every name, in panel order
GOLDEN_CROSS_SECTIONAL = {
    'default': (
        '0x1.2bad3fd34e140p+7', '0x1.016b6976ac314p+7', '0x1.2bad3fd34e140p+7',
        '0x1.016b6976ac314p+7', '0x1.2bad3fd34e140p+7',
    ),
    'large-seed1': (
        '0x1.ee8891b6a4dd9p+6', '0x1.e968f8edb33f2p+6', '0x1.036f795adef9ap+7',
        '0x1.07c000dca73a5p+7', '0x1.1c8d89731b0acp+7', '0x1.197406ac54bf4p+7',
        '0x1.f9d30e40daa56p+6', '0x1.f49583593b89ap+6', '0x1.095bd784cd3aap+7',
        '0x1.0dc596dca45f9p+7', '0x1.ee8891b6a4dd9p+6', '0x1.e968f8edb33f2p+6',
        '0x1.036f795adef9ap+7', '0x1.07c000dca73a5p+7', '0x1.1c8d89731b0acp+7',
        '0x1.197406ac54bf4p+7', '0x1.f9d30e40daa56p+6', '0x1.f49583593b89ap+6',
        '0x1.095bd784cd3aap+7', '0x1.0dc596dca45f9p+7',
    ),
    'large-seed23': (
        '0x1.0f333c9774d36p+7', '0x1.09345c6d2aa76p+7', '0x1.2134b56bf73a8p+7',
        '0x1.1a0f96e9cb601p+7', '0x1.3110bc6d79087p+7', '0x1.2af2af7985584p+7',
        '0x1.181eaab00b4b3p+7', '0x1.11ed4f4b79c81p+7', '0x1.2ab7bdfea9a0cp+7',
        '0x1.235676cf4605cp+7', '0x1.0f333c9774d36p+7', '0x1.09345c6d2aa76p+7',
        '0x1.2134b56bf73a8p+7', '0x1.1a0f96e9cb601p+7', '0x1.3110bc6d79087p+7',
        '0x1.2af2af7985584p+7', '0x1.181eaab00b4b3p+7', '0x1.11ed4f4b79c81p+7',
        '0x1.2ab7bdfea9a0cp+7', '0x1.235676cf4605cp+7',
    ),
}


def panel_records(name):
    """(fit records, every name's categories in panel order) of one panel."""
    config, n_fit = GOLDEN_PANELS[name]
    panel = datagen.generate_panel(config)
    categories = datagen.assign_categories(panel.counterparties)
    records = datagen.records_from_panel(panel, categories)
    return records[:n_fit], [categories[n] for n in panel.counterparties]


@pytest.mark.parametrize("name", list(GOLDEN_PANELS))
@pytest.mark.parametrize("statistic", list(baselines.ProxyStatistic))
def test_curve_mapping_table_is_golden(name, statistic):
    records, _ = panel_records(name)
    table = baselines.curve_mapping_table(records, statistic)
    assert {key: value.hex() for key, value in table.items()} == (
        GOLDEN_CURVE[name][statistic.value])
    assert list(table) == list(GOLDEN_CURVE[name][statistic.value])


@pytest.mark.parametrize("name", list(GOLDEN_PANELS))
def test_cross_sectional_proxies_are_golden(name):
    records, categories = panel_records(name)
    model = baselines.fit_cross_sectional(records)
    assert tuple(model.predict(c).hex() for c in categories) == (
        GOLDEN_CROSS_SECTIONAL[name])
