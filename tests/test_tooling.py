"""Source checks: imports stay at module level, no module imports another
moyal module's underscore-prefixed names, every lru_cache is bounded, and the
package declares no runtime dependency."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "moyal").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _violations(tree):
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        for node in ast.walk(func):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node.lineno, "import inside a function body"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "moyal"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, f"private name {alias.name} imported"
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "lru_cache":
            continue
        sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
        if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
            yield node.lineno, "unbounded lru_cache"


def test_sources_are_found():
    assert any(path.name == "star.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_imports_or_unbounded_caches(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in _violations(tree)] == []


@pytest.mark.parametrize(
    "source",
    [
        "def f():\n    import os\n",
        "def f():\n    if True:\n        from . import x\n",
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(): pass\n",
        "import functools\n@functools.lru_cache(None)\ndef f(): pass\n",
        "from .star import BiDiff, _check_operands\n",
        "from moyal.poly import _degree_guard\n",
        "from . import _private\n",
    ],
)
def test_checker_flags_planted_violations(source):
    assert list(_violations(ast.parse(source)))


def test_checker_allows_public_and_foreign_names():
    source = "from .star import BiDiff\nfrom os import _exit\nfrom __future__ import annotations\n"
    assert list(_violations(ast.parse(source))) == []


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []
