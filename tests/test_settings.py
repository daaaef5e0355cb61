"""Settings checks shared by every module: an unknown value of a setting
enum, a count that is not a positive integer, a seed that is not a
non-negative integer and a real setting that is not a real number in its
range all raise BadConfig, at the call that is given them, naming the
setting."""
import enum
import importlib
import pkgutil
import re

import numpy as np
import pytest

import cdsproxy
from conftest import make_blobs, tiny_panel
from cdsproxy.baselines import curve_mapping_proxy
from cdsproxy.bayes import fit_lda, fit_nb
from cdsproxy.core import build_dataset
from cdsproxy.datagen import GeneratorConfig, generate_panel
from cdsproxy.errors import BadConfig, Setting
from cdsproxy.evaluation import (
    cross_validate,
    make_classifier_spec,
    rank_classifiers,
    stratified_folds,
)
from cdsproxy.neighbors import fit_knn
from cdsproxy.neuralnet import fit_neural_net
from cdsproxy.numerics import pca_fit, pca_transform
from cdsproxy.svm import KernelSpec
from cdsproxy.trees import fit_bagged, fit_tree


def blobs():
    return make_blobs([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], 10, scale=0.6, seed=3)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: build_dataset(tiny_panel(), "FS7"),
                 "unknown FeatureSelection 'FS7'; known values: FS1, FS2, FS3, FS4, FS5, FS6",
                 id="FeatureSelection"),
    pytest.param(lambda: rank_classifiers([], ["FS7"]),
                 "unknown FeatureSelection 'FS7'", id="FeatureSelection-ranking"),
    pytest.param(lambda: fit_lda(blobs(), mode="banded"),
                 "unknown CovMode 'banded'; known values: full, diagonal", id="CovMode"),
    pytest.param(lambda: fit_nb(blobs(), kernel="box"),
                 "unknown KernelKind 'box'; known values: normal, triangular, epanechnikov",
                 id="KernelKind"),
    pytest.param(lambda: fit_knn(blobs(), metric="cosine"),
                 "unknown Metric 'cosine'; known values: euclidean, cityblock, mahalanobis",
                 id="Metric"),
    pytest.param(lambda: fit_tree(blobs(), criterion="x"),
                 "unknown SplitCriterion 'x'; known values: gini, entropy, twoing",
                 id="SplitCriterion"),
    pytest.param(lambda: KernelSpec("rbf"),
                 "unknown SvmKernel 'rbf'; known values: linear, gaussian, polynomial",
                 id="SvmKernel"),
    pytest.param(lambda: fit_neural_net(blobs(), activation="relu"),
                 "unknown Activation 'relu'; known values: tan-sigmoid, linear, elliot-sigmoid",
                 id="Activation"),
    pytest.param(lambda: curve_mapping_proxy([1.0], "mode"),
                 "unknown ProxyStatistic 'mode'; known values: mean, median",
                 id="ProxyStatistic")])
def test_unknown_setting_value_raises_bad_config(call, message):
    with pytest.raises(BadConfig, match=f"^{re.escape(message)}"):
        call()


BAD_COUNTS = [
    pytest.param(lambda: fit_knn(blobs(), k=3.7), "k must be a positive integer, got 3.7",
                 id="knn-k-fraction"),
    pytest.param(lambda: fit_knn(blobs(), k=True), "k must be a positive integer, got True",
                 id="knn-k-bool"),
    pytest.param(lambda: pca_transform(pca_fit(blobs().x), blobs().x, 2.5),
                 "component count must be a positive integer, got 2.5", id="pca-m"),
    pytest.param(lambda: stratified_folds(blobs(), 2.5),
                 "fold count must be a positive integer, got 2.5", id="folds-k"),
    pytest.param(lambda: cross_validate(make_classifier_spec("LDA-FullCov"), blobs(), k=2.5),
                 "fold count must be a positive integer, got 2.5", id="cross-validate-k"),
    pytest.param(lambda: fit_tree(blobs(), max_splits=2.5),
                 "max_splits must be a positive integer, got 2.5", id="tree-max-splits"),
    pytest.param(lambda: fit_bagged(blobs(), max_splits=np.nan),
                 "max_splits must be a positive integer, got nan", id="bagged-max-splits"),
    pytest.param(lambda: fit_bagged(blobs(), n_trees=2.5),
                 "n_trees must be a positive integer, got 2.5", id="bagged-n-trees"),
    pytest.param(lambda: fit_neural_net(blobs(), hidden_units=2.5),
                 "hidden_units must be a positive integer, got 2.5", id="nn-hidden-units"),
    pytest.param(lambda: fit_neural_net(blobs(), hidden_units="4"),
                 "hidden_units must be a positive integer, got '4'", id="nn-hidden-units-text"),
    pytest.param(lambda: GeneratorConfig(n_days=20.5),
                 "n_days must be a positive integer, got 20.5", id="generator-n-days"),
    pytest.param(lambda: GeneratorConfig(n_counterparties=np.inf),
                 "n_counterparties must be a positive integer, got inf",
                 id="generator-n-counterparties")]


@pytest.mark.parametrize("call, message", BAD_COUNTS)
def test_count_that_is_not_a_positive_integer_raises_bad_config(call, message):
    with pytest.raises(BadConfig, match=f"^{re.escape(message)}$"):
        call()


def test_integral_float_counts_are_used_as_ints():
    config = GeneratorConfig(n_counterparties=4.0, n_days=20.0)
    assert config.settings() == GeneratorConfig(n_counterparties=4, n_days=20).settings()
    assert type(config.n_counterparties) is int and type(config.n_days) is int
    panel = generate_panel(config)
    same = generate_panel(GeneratorConfig(n_counterparties=4, n_days=20))
    assert all(np.array_equal(panel.values[c], same.values[c], equal_nan=True)
               for c in same.values)
    model = fit_knn(blobs(), k=np.float64(3.0))
    assert type(model.k) is int and model.k == 3
    assert stratified_folds(blobs(), np.int64(3)).k == 3
    assert KernelSpec("polynomial", degree=2.0).degree == 2


BAD_SEEDS = [
    pytest.param(lambda: GeneratorConfig(seed=-1), -1, id="generator-negative"),
    pytest.param(lambda: GeneratorConfig(seed=1.5), 1.5, id="generator-fraction"),
    pytest.param(lambda: GeneratorConfig(seed=True), True, id="generator-bool"),
    pytest.param(lambda: stratified_folds(blobs(), 2, seed=-1), -1, id="folds"),
    pytest.param(lambda: stratified_folds(blobs(), 2, seed=0.5), 0.5, id="folds-fraction"),
    pytest.param(lambda: cross_validate(make_classifier_spec("LDA-FullCov"), blobs(), k=2,
                                        seed=-1), -1, id="cross-validate"),
    pytest.param(lambda: fit_bagged(blobs(), seed=-3), -3, id="bagged"),
    pytest.param(lambda: fit_bagged(blobs(), seed=np.nan), np.nan, id="bagged-nan"),
    pytest.param(lambda: fit_neural_net(blobs(), seed=-3), -3, id="nn"),
    pytest.param(lambda: fit_neural_net(blobs(), seed="3"), "3", id="nn-text")]


@pytest.mark.parametrize("call, seed", BAD_SEEDS)
def test_seed_that_is_not_a_non_negative_integer_raises_bad_config(call, seed):
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(BadConfig, match=f"^{re.escape(message)}$"):
        call()


BAD_REALS = [
    pytest.param(lambda: fit_nb(blobs(), bandwidth="0.2"),
                 "bandwidth must be a real number in (0, inf), got '0.2'", id="nb-bandwidth-text"),
    pytest.param(lambda: fit_nb(blobs(), bandwidth=True),
                 "bandwidth must be a real number in (0, inf), got True", id="nb-bandwidth-bool"),
    pytest.param(lambda: KernelSpec("gaussian", scale="1"),
                 "gaussian kernel scale must be a real number in (0, inf), got '1'",
                 id="svm-scale-text"),
    pytest.param(lambda: KernelSpec("gaussian", scale=True),
                 "gaussian kernel scale must be a real number in (0, inf), got True",
                 id="svm-scale-bool"),
    pytest.param(lambda: GeneratorConfig(factor_loading="0.5"),
                 "factor_loading must be a real number in [0, 1), got '0.5'",
                 id="generator-factor-loading-text"),
    pytest.param(lambda: GeneratorConfig(factor_loading=1.0),
                 "factor_loading must be a real number in [0, 1), got 1.0",
                 id="generator-factor-loading-one"),
    pytest.param(lambda: GeneratorConfig(factor_loading=np.nan),
                 "factor_loading must be a real number in [0, 1), got nan",
                 id="generator-factor-loading-nan")]


@pytest.mark.parametrize("call, message", BAD_REALS)
def test_real_setting_outside_its_range_raises_bad_config(call, message):
    with pytest.raises(BadConfig, match=f"^{re.escape(message)}$"):
        call()


def test_integral_seeds_and_real_settings_are_stored_as_int_and_float():
    config = GeneratorConfig(n_days=20, factor_loading=0, seed=3.0)
    assert type(config.seed) is int and type(config.factor_loading) is float
    assert config.settings() == GeneratorConfig(n_days=20, factor_loading=0.0,
                                                seed=3).settings()
    assert np.array_equal(stratified_folds(blobs(), 3, seed=np.int64(4)).assignment,
                          stratified_folds(blobs(), 3, seed=4).assignment)
    assert fit_bagged(blobs(), n_trees=2, seed=2.0).seed == 2
    assert type(KernelSpec("gaussian", scale=np.float32(0.5)).scale) is float
    assert type(fit_nb(blobs(), bandwidth=1).bandwidth) is float


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_enum_in_the_package_derives_from_the_setting_base():
    """A setting enum outside the base would answer an unknown value with
    enum's untyped ValueError instead of BadConfig."""
    for module in pkgutil.iter_modules(cdsproxy.__path__):
        importlib.import_module(f"cdsproxy.{module.name}")
    defined = {cls for cls in _subclasses(enum.Enum)
               if cls.__module__.startswith("cdsproxy.") and cls is not Setting}
    assert len(defined) >= 8
    assert sorted(cls.__qualname__ for cls in defined
                  if not issubclass(cls, Setting)) == []
