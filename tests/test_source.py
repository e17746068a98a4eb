"""Static checks on the library's source files."""

import ast
from pathlib import Path

import enumtc

SOURCES = sorted(Path(enumtc.__file__).parent.glob("*.py"))


def unused_imports(tree):
    """Names a module imports and never reads, in source order.

    ``import a.b`` binds ``a``; ``from __future__`` imports are compiler
    directives, not names.
    """
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound if name not in read)


def unread_helpers(trees):
    """(module, name) of each module-level function or method named _x
    (not __x__) whose name no module of `trees`, a dict from module name
    to tree, reads as a name or an attribute, in sorted order."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defined += [(module, f.name) for f in body
                        if isinstance(f, ast.FunctionDef)
                        and f.name.startswith("_")
                        and not f.name.endswith("__")]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted((module, name) for module, name in defined
                  if name not in read)


def test_the_checker_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport sys\n"
                     "from math import lcm, gcd as g\n"
                     "def f(x: sys.Foo):\n    return os.sep, g\n")
    assert unused_imports(tree) == [(4, "lcm")]


def test_no_module_imports_a_name_it_never_uses():
    assert len(SOURCES) > 10
    dead = {path.name: unused_imports(ast.parse(path.read_text()))
            for path in SOURCES}
    assert {name: found for name, found in dead.items() if found} == {}


def test_the_checker_finds_an_unread_helper():
    trees = {"a": ast.parse("def _kept():\n    pass\n"
                            "def _left():\n    pass\n"
                            "class C:\n    def __init__(self):\n"
                            "        self._used()\n"
                            "    def _used(self):\n        pass\n"
                            "    def _stale(self):\n        pass\n"),
             "b": ast.parse("import a\na._kept()\n")}
    assert unread_helpers(trees) == [("a", "_left"), ("a", "_stale")]


def test_no_helper_is_left_unread():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert unread_helpers(trees) == []


def test_only_the_runner_sets_a_claim_status():
    """Each _run_* function in claims.py returns a result; the runner
    compares it with the claim's target and alone writes a status."""
    claims_py = Path(enumtc.__file__).parent / "claims.py"
    runs = [node for node in ast.parse(claims_py.read_text()).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_run_")]
    assert len(runs) > 10
    statuses = {run.name for run in runs for node in ast.walk(run)
                if isinstance(node, ast.Constant)
                and node.value in ("verified", "failed")}
    assert statuses == set()
