"""Every function, class and method in the package has a caller outside the
tests: a name in src/cdsproxy, or a name or string in perfbench's code, whose
tracer names the entry points it wraps as strings. A helper that only tests
call is a second code path to keep in step; delete it instead.
"""
import ast
from pathlib import Path

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
