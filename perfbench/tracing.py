"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps the public entry points of every cdsproxy module from
outside the program: it replaces each function in its defining module and
in every cdsproxy module that imported it by name, and each predict method
on the classifier classes. A span records its name, layer, start, end and
parent span, plus the work the call reports (SMO pair updates, NN epochs,
query rows). Spans stay in memory until the run ends. The kNN and naive
Bayes predict peaks come from separate untimed predicts (run.py), so no
span is timed with tracemalloc on.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

from cdsproxy.svm import DEFAULT_MAX_UPDATES

LAYERS = ("datagen", "core", "baselines", "evaluation", "numerics", "bayes",
          "neighbors", "logistic", "trees", "svm", "neuralnet")

# entry points besides the fit_* functions, which are wrapped in every layer
_FUNCTIONS = {
    "datagen": ("generate_panel", "read_panel"),
    "core": ("build_dataset", "impute_five_year_rate"),
    "baselines": ("curve_mapping_table",),
    "evaluation": ("make_classifier_spec", "stratified_folds",
                   "cross_validate", "pca_study",
                   "correlation_histogram", "rank_classifiers",
                   "render_cv_csv", "render_ranking_csv", "render_family_csv",
                   "render_pca_csv", "render_histogram_csv"),
    "numerics": ("cholesky_spd", "solve_spd", "eigen_symmetric", "pca_fit"),
    "trees": ("best_split",),
}
_METHODS = {
    "core": (("Dataset", "subset"),),
    "baselines": (("CrossSectionalModel", "predict"),),
}
PREDICT_METHODS = ("scores_batch", "classify_batch")
# layers whose predicts report a tracemalloc peak, <layer>.predict_peak_mb
MEMORY_LAYERS = ("neighbors", "bayes")

_INHERITED = object()

# span fields
NAME, LAYER, START, END, PARENT, ROWS, WORK = range(7)


def _rows(args, kwargs) -> int:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return 1 if getattr(x, "ndim", 2) == 1 else len(x)


class Tracer:
    """Records spans for calls into the cdsproxy modules while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # seconds spent in the wrappers outside the calls they time
        self._own_s = [0.0]

    @property
    def own_s(self) -> float:
        return self._own_s[0]

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"cdsproxy.{layer}")
                   for layer in LAYERS}
        from cdsproxy.core import ClassifierModel
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    continue
                if name.startswith("fit_") or name in _FUNCTIONS.get(layer, ()):
                    wrapped = self._wrap(layer, name, obj, "call")
                    for other in modules.values():
                        if vars(other).get(name) is obj:
                            self._set(other, name, wrapped)
            for cls_name, method in _METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                self._set(cls, method, self._wrap(
                    layer, f"{cls_name}.{method}", getattr(cls, method), "call"))
            for cls in vars(module).values():
                if (inspect.isclass(cls) and issubclass(cls, ClassifierModel)
                        and cls.__module__ == module.__name__
                        and not inspect.isabstract(cls)):
                    for method in PREDICT_METHODS:
                        self._set(cls, method, self._wrap(
                            layer, f"{cls.__name__}.{method}",
                            inspect.unwrap(getattr(cls, method)), "predict"))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patched.clear()

    def _set(self, owner, name, wrapped) -> None:
        self._patched.append((owner, name, vars(owner).get(name, _INHERITED)))
        setattr(owner, name, wrapped)

    def _wrap(self, layer: str, name: str, fn, kind: str):
        spans, stack, own = self.spans, self._stack, self._own_s
        predict = kind == "predict"
        short = name.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            parent = stack[-1] if stack else -1
            span = [name, layer, 0.0, 0.0, parent, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if short == "fit_svm_binary":
                    # a machine that stops at the cap did all its updates
                    span[WORK] = kwargs.get("max_updates", DEFAULT_MAX_UPDATES)
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                own[0] += span[START] - entered
            if predict:
                span[ROWS] = _rows(args, kwargs)
            elif short == "fit_svm_binary":
                span[WORK] = result.n_updates
            elif short == "fit_neural_net":
                span[WORK] = result.epochs_run
            own[0] += time.perf_counter() - span[END]
            return result

        return traced

    # ------------------------------------------------------------- output

    def write(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "rows", "work")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------- metrics


def _sum(values) -> float:
    return float(sum(values))


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def layer_metrics(spans: list[list], untraced_s: float,
                  traced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run's spans.

    traced_s is the wall time of the traced work and untraced_s the same
    without the tracer's own time; their ratio gives trace.overhead_pct.
    The predict peaks of MEMORY_LAYERS are not span figures and are added
    by the caller.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        self_s[span[LAYER]] += span[END] - span[START] - children[i]

    def dur(span):
        return span[END] - span[START]

    def named(*names):
        return [s for s in spans if s[NAME].rsplit(".", 1)[-1] in names]

    def top_predicts(layer):
        # the outermost predict span of a layer; nested ones (a bagged
        # committee calling its trees) are inside it
        return [s for s in spans if s[LAYER] == layer
                and s[NAME].rsplit(".", 1)[-1] in PREDICT_METHODS
                and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer)]

    svm_fits = named("fit_svm_binary")
    updates = sum(s[WORK] for s in svm_fits)
    nn_fits = named("fit_neural_net")
    epochs = sum(s[WORK] for s in nn_fits)
    knn = top_predicts("neighbors")
    knn_rows = sum(s[ROWS] for s in knn)
    splits = named("best_split")
    cholesky = named("cholesky_spd")
    eigen = named("eigen_symmetric")
    renders = [s for s in spans if s[NAME].startswith("render_")]
    out = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    out.update({
        "svm.binary_fits": (float(len(svm_fits)), "count"),
        "svm.updates": (float(updates), "count"),
        "svm.update_us": (_sum(map(dur, svm_fits)) / updates * 1e6
                          if updates else 0.0, "us"),
        "svm.predict_s": (_sum(map(dur, top_predicts("svm"))), "s"),
        "neuralnet.epochs": (float(epochs), "count"),
        "neuralnet.epoch_us": (_sum(map(dur, nn_fits)) / epochs * 1e6
                               if epochs else 0.0, "us"),
        "neuralnet.predict_s": (_sum(map(dur, top_predicts("neuralnet"))), "s"),
        "trees.best_split_calls": (float(len(splits)), "count"),
        "trees.best_split_us": (_mean(map(dur, splits)) * 1e6, "us"),
        "trees.predict_s": (_sum(map(dur, top_predicts("trees"))), "s"),
        "neighbors.query_us": (_sum(map(dur, knn)) / knn_rows * 1e6
                               if knn_rows else 0.0, "us"),
        "bayes.predict_s": (_sum(map(dur, top_predicts("bayes"))), "s"),
        "logistic.binary_fits": (float(len(named("fit_logistic_binary"))),
                                 "count"),
        "numerics.cholesky_calls": (float(len(cholesky)), "count"),
        "numerics.cholesky_us": (_mean(map(dur, cholesky)) * 1e6, "us"),
        "numerics.solve_spd_us": (_mean(map(dur, named("solve_spd"))) * 1e6,
                                  "us"),
        "numerics.eigen_calls": (float(len(eigen)), "count"),
        "numerics.eigen_us": (_mean(map(dur, eigen)) * 1e6, "us"),
        "evaluation.folds_ms": (_sum(map(dur, named("stratified_folds"))) * 1e3,
                                "ms"),
        "evaluation.pca_study_s": (_sum(map(dur, named("pca_study"))), "s"),
        "evaluation.correlation_ms": (
            _sum(map(dur, named("correlation_histogram"))) * 1e3, "ms"),
        "evaluation.rank_ms": (_sum(map(dur, named("rank_classifiers"))) * 1e3,
                               "ms"),
        "evaluation.render_ms": (_sum(map(dur, renders)) * 1e3, "ms"),
        "core.build_dataset_ms": (_sum(map(dur, named("build_dataset"))) * 1e3,
                                  "ms"),
        "core.subset_ms": (_sum(map(dur, named("subset"))) * 1e3, "ms"),
        "core.impute_ms": (_sum(map(dur, named("impute_five_year_rate"))) * 1e3,
                           "ms"),
        "datagen.generate_ms": (_sum(map(dur, named("generate_panel"))) * 1e3,
                                "ms"),
        "datagen.read_panel_ms": (_sum(map(dur, named("read_panel"))) * 1e3,
                                  "ms"),
        "baselines.fit_ms": (_sum(map(dur, named("fit_cross_sectional",
                                                 "curve_mapping_table"))) * 1e3,
                             "ms"),
        "baselines.proxy_us": (_mean(map(dur, named("predict"))) * 1e6, "us"),
        "trace.overhead_pct": ((traced_s - untraced_s) / untraced_s * 100.0
                               if untraced_s > 0 else 0.0, "%"),
    })
    return out
