"""Source hygiene of the package, checked with `ast` (no linter needed).

* No `assert` statement: `python -O` strips them, so a result check
  written as one would silently stop checking.
* No import that the module never uses.  `__init__.py` is exempt, since
  its imports are the public re-exports.
* No `object.__setattr__` call and no `__getattr__` method: state set on a
  frozen value after construction, or filled in behind an attribute read,
  is hidden from its constructor and from `dataclasses.replace`.
* No `global` statement: module state rebound by a function is hidden
  from its callers.  The exceptions are listed in `GLOBAL_ALLOWED`, each
  with its reason.
"""

import ast
from pathlib import Path

import pytest

import ncflow

SOURCES = sorted(Path(ncflow.__file__).parent.glob("*.py"))

# (file, function) -> why that function may rebind a module global
GLOBAL_ALLOWED = {
    ("matchings.py", "_cut_index"): (
        "keeps the index of the last graph's 3-edge cuts, since callers pass "
        "the same cuts for every edge of one graph, and with it the partial "
        "matchings that the searches through those edges have refuted"
    ),
}


def _names_in(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used_names(tree: ast.Module) -> set:
    """Every name read in the module, including the names inside string
    annotations (`-> "Pseudograph"`) and those listed in `__all__`."""
    used = _names_in(tree)
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in filter(None, annotations):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used |= _names_in(ast.parse(const.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of each imported name the module never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = _used_names(tree)
    return [(line, name) for line, name in imported if name not in used]


def asserts(tree: ast.Module) -> list:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def object_setattr_calls(tree: ast.Module) -> list:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]


def getattr_methods(tree: ast.Module) -> list:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__getattr__"
    ]


def global_statements(tree: ast.Module) -> list:
    """(line, name of the innermost function holding it, or None) of each
    `global` statement."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                found.append((child.lineno, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert asserts(ast.parse(path.read_text())) == []


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_object_setattr(path):
    assert object_setattr_calls(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_getattr_method(path):
    assert getattr_methods(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_global_statements(path):
    found = global_statements(ast.parse(path.read_text()))
    assert [(line, f) for line, f in found if (path.name, f) not in GLOBAL_ALLOWED] == []


def test_every_allowed_global_is_still_used():
    used = {(p.name, f) for p in SOURCES for _line, f in global_statements(ast.parse(p.read_text()))}
    assert set(GLOBAL_ALLOWED) <= used


class TestTheChecksThemselves:
    def test_flags_an_assert(self):
        assert asserts(ast.parse("def f(x):\n    assert x\n")) == [2]

    def test_flags_an_unused_import(self):
        src = "from typing import Optional, Tuple\nimport os\n\ndef f() -> Tuple:\n    return ()\n"
        assert unused_imports(ast.parse(src)) == [(1, "Optional"), (2, "os")]

    def test_counts_string_annotations_all_and_attributes_as_uses(self):
        src = (
            "import os.path\nfrom x import A, B\n__all__ = ['B']\n\n"
            "def f() -> 'A':\n    return os.path.sep\n"
        )
        assert unused_imports(ast.parse(src)) == []

    def test_flags_an_object_setattr_call(self):
        src = (
            "class A:\n    def f(self):\n"
            "        object.__setattr__(self, 'x', 1)\n        setattr(self, 'y', 2)\n"
        )
        assert object_setattr_calls(ast.parse(src)) == [3]

    def test_flags_a_getattr_method(self):
        src = (
            "class A:\n    def __getattribute__(self, name):\n        pass\n\n"
            "    def __getattr__(self, name):\n        pass\n"
        )
        assert getattr_methods(ast.parse(src)) == [5]

    def test_flags_a_global_statement_in_its_innermost_function(self):
        src = (
            "x = 0\n\ndef f():\n    global x\n    x = 1\n\n"
            "def g():\n    def h():\n        global x\n    return h\n"
        )
        assert global_statements(ast.parse(src)) == [(4, "f"), (9, "h")]
