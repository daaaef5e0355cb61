"""Every function, class and method in the package has a caller outside the
tests: a name in src/cdsproxy, or a name or string in perfbench's code, whose
tracer names the entry points it wraps as strings. A helper that only tests
call is a second code path to keep in step; delete it instead. Likewise
every parameter with a default is set by some caller outside the tests,
no parameter without one is always passed the same module constant, and
every dataclass field is read outside the tests: by name in the source,
and, for the classifier modules' dataclasses, when the grid runs.
"""
import ast
import dataclasses
import importlib
from pathlib import Path

from cdsproxy import (
    bayes,
    core,
    datagen,
    evaluation,
    logistic,
    neighbors,
    neuralnet,
    svm,
    trees,
)

ROOT = Path(__file__).resolve().parents[1]

# read by the per-fold trace that the ROADMAP plans (Open item 2)
EXEMPT = {"describe"}


def _trees(directory):
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(directory.rglob("*.py"))]


def _referenced(trees, strings=False):
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                names.add(node.value)
    return names


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    src = _trees(ROOT / "src" / "cdsproxy")
    used = _referenced(src) | _referenced(_trees(ROOT / "perfbench"), strings=True)
    defined = {
        (path.name, node.name)
        for path, tree in src for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))}
    unused = sorted((module, name) for module, name in defined
                    if name not in used and name not in EXEMPT)
    assert unused == []


# (class, field) -> why the field stays although only tests read it
UNREAD_FIELDS = {
    ("NeuralNetClassifier", "loss_history"):
        "the frozen-loop reference tests compare the whole training path "
        "through it, and without it they would check only the end point",
}


def _is_dataclass(node):
    return any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None))
               == "dataclass" for d in node.decorator_list)


def _attributes_read(tree, on_self):
    """Attribute names loaded from the name self (on_self) or from anything else."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and (getattr(node.value, "id", None) == "self") == on_self}


def test_every_dataclass_field_is_read_outside_the_tests():
    """A field is read as self.<field> in its own class, as <expr>.<field>
    on anything but self elsewhere in src/cdsproxy or perfbench, or through
    a string holding its name there (getattr, perfbench's names). A field
    that nothing reads is state to keep in step for no reader: delete it."""
    src = _trees(ROOT / "src" / "cdsproxy")
    trees = src + _trees(ROOT / "perfbench")
    read = set().union(*(_attributes_read(tree, on_self=False) for _, tree in trees))
    strings = {node.value for _, tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = sorted(
        (cls.name, item.target.id)
        for _, tree in src for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for item in cls.body if isinstance(item, ast.AnnAssign)
        and item.target.id not in _attributes_read(cls, on_self=True) | read | strings)
    assert [f for f in unread if f not in UNREAD_FIELDS] == []
    assert sorted(UNREAD_FIELDS) == unread, "an exemption names a field that is read"


def test_every_model_field_is_read_when_the_grid_runs(monkeypatch):
    """The rule above matches names across the package, so a read of
    Dataset.class_names passes every model's class_names. This one runs
    the grid on a small panel, fold 0 of two on FS1-FS6, with every
    dataclass of the classifier modules recording the attributes read from
    it: each label is fitted, classifies the holdout rows, describes
    itself and passes perfbench's reference check of its family. Every
    field must be read on the way, but for the UNREAD_FIELDS exemptions."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    references = importlib.import_module("references")
    classes = [cls for module in (bayes, neighbors, logistic, trees, svm, neuralnet)
               for cls in vars(module).values()
               if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__]
    read, patched = set(), []

    def recording(cls):
        def getattribute(self, name):
            read.add((cls.__name__, name))
            return object.__getattribute__(self, name)
        return getattribute

    panel = datagen.generate_panel(
        datagen.GeneratorConfig(n_counterparties=3, n_days=30, seed=0))
    try:
        for cls in classes:
            assert "__getattribute__" not in vars(cls)
            cls.__getattribute__ = recording(cls)
            patched.append(cls)
        for selection in core.ALL_SELECTIONS:
            dataset = core.build_dataset(panel, selection)
            plan = evaluation.stratified_folds(dataset, 2, 0)
            train = dataset.subset(plan.training_rows(0))
            x = dataset.x[plan.holdout_rows(0)]
            for label in evaluation.DEFAULT_GRID:
                model = evaluation.make_classifier_spec(label).fit(train, 0)
                predicted = model.classify_batch(x)
                model.describe()
                assert references.check_model(model, train.x, train.y, x, predicted,
                                              f"{label} {selection.value}") == []
    finally:
        for cls in patched:
            del cls.__getattribute__
    unread = sorted((cls.__name__, f.name) for cls in classes
                    for f in dataclasses.fields(cls) if (cls.__name__, f.name) not in read)
    assert [f for f in unread if f not in UNREAD_FIELDS] == []
    assert sorted(UNREAD_FIELDS) == unread, "an exemption names a field that is read"


# the model parameters the paper varies to make its 156 classifiers; the
# planned within-family sweep sets them (ROADMAP item 6)
SWEPT = {"k", "bandwidth", "max_splits", "n_trees", "hidden_units", "degree",
         "scale"}


def _parameters(src):
    """(function, parameter, position, defaulted) of every parameter, in the
    order declared; a method's positions do not count self, and a
    keyword-only parameter has position None."""
    found = []
    for _, tree in src:
        methods = {id(item) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            if id(node) in methods and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in node.decorator_list):
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            found += [(node.name, a.arg, i, i >= first)
                      for i, a in enumerate(positional)]
            found += [(node.name, a.arg, None, d is not None)
                      for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return found


def _passed(trees):
    """name -> (positions passed, keywords passed) over every call by that
    name; a starred argument passes every later position."""
    passed = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                count, keywords = passed.get(name, (0, set()))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                passed[name] = (
                    max(count, float("inf") if starred else len(node.args)),
                    keywords | {k.arg for k in node.keywords if k.arg})
    return passed


def _fit_settings(src):
    """Keywords that reach every fit_* function: those passed in
    evaluation._fit_entry, and the keys of the _CLASSIFIERS params dicts."""
    (tree,) = [tree for path, tree in src if path.name == "evaluation.py"]
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_fit_entry":
            keys |= {k.arg for call in ast.walk(node)
                     if isinstance(call, ast.Call) for k in call.keywords}
        elif (isinstance(node, ast.AnnAssign)
              and getattr(node.target, "id", None) == "_CLASSIFIERS"):
            keys |= {key.value for entry in node.value.values
                     for params in entry.elts if isinstance(params, ast.Dict)
                     for key in params.keys}
    return keys


def test_every_parameter_with_a_default_is_set_outside_the_tests():
    """A default that no caller in src/cdsproxy or perfbench overrides is a
    constant with a second path through the code: make it the constant."""
    src = _trees(ROOT / "src" / "cdsproxy")
    passed = _passed(src + _trees(ROOT / "perfbench"))
    fit_settings = _fit_settings(src)
    unset = {}
    for function, name, position, defaulted in _parameters(src):
        if not defaulted:
            continue
        count, keywords = passed.get(function, (0, set()))
        if not (name in SWEPT or name in keywords
                or (position is not None and position < count)
                or (function.startswith("fit_") and name in fit_settings)):
            unset.setdefault(function, []).append(name)
    assert sorted(f"{function}({', '.join(names)})"
                  for function, names in unset.items()) == []


def _call_name(node):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def _argument(call, name, position):
    """The expression a call passes for a parameter, or None when it passes
    none or a starred argument may cover it."""
    if position is not None and position < len(call.args):
        if any(isinstance(a, ast.Starred) for a in call.args[:position + 1]):
            return None
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == name), None)


def test_no_parameter_is_always_passed_the_same_module_constant():
    """A parameter without a default that every call in src/cdsproxy and
    perfbench fills with one module-level UPPER_CASE constant is that
    constant passed around: let the function read it instead."""
    src = _trees(ROOT / "src" / "cdsproxy")
    trees = src + _trees(ROOT / "perfbench")
    constants = {target.id for _, tree in trees for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign)
                                else [node.target])
                 if isinstance(target, ast.Name) and target.id.isupper()}
    calls = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    fixed = {}
    for function, name, position, defaulted in _parameters(src):
        passed = {getattr(value, "id", getattr(value, "attr", None))
                  for value in (_argument(call, name, position)
                                for call in calls.get(function, []))}
        if not defaulted and len(passed) == 1 and passed <= constants:
            fixed.setdefault(function, []).append(name)
    assert sorted(f"{function}({', '.join(names)})"
                  for function, names in fixed.items()) == []


def _bound_by_imports(tree):
    """Names that the module's import statements bind, but for __future__."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound


def test_every_imported_name_is_used():
    """An import that nothing reads is a dependency nobody has; every name
    an import binds is read as a Name, or as the root of an attribute."""
    unused = []
    for directory in (ROOT / "src" / "cdsproxy", ROOT / "tests"):
        for path, tree in _trees(directory):
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.relative_to(ROOT)}: {name}"
                       for name in sorted(_bound_by_imports(tree) - read)]
    assert unused == []
