"""Source checks: imports stay at module level, no module imports another
moyal module's underscore-prefixed names, every lru_cache is bounded, only
poly.py reads or enforces the degree guard itself, only scalars.py calls the
trusted scalar constructors, in cli.py only the expression table and its pass
read and parse expression arguments, and the package declares no runtime
dependency."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "moyal").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


# Everywhere else the guard is enforced through poly.check_degree.
GUARD_NAMES = {"get_degree_guard", "DegreeGuardError"}
# They skip normalisation: canonical form, == and hash have one owner.
TRUSTED_CONSTRUCTORS = {"Coefficient", "MuPoly"}
# A handler that read its own expression would skip --stdin.
EXPRESSION_READERS = {"parse_poly", "parse_coefficient", "parse_series", "fetch"}
EXPRESSION_SCOPES = {"_EXPRESSIONS", "_parse_expressions"}


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _expression_violations(tree):
    for stmt in tree.body:
        targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
        scopes = {getattr(stmt, "name", None)} | {getattr(t, "id", None) for t in targets}
        if scopes & EXPRESSION_SCOPES:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and _called_name(node) in EXPRESSION_READERS:
                yield node.lineno, f"{_called_name(node)} called outside the expression table"


def _violations(tree, module=""):
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
        name = _called_name(node)
        if name in GUARD_NAMES and module != "poly.py":
            yield node.lineno, f"{name} called outside poly.py"
        if name in TRUSTED_CONSTRUCTORS and module != "scalars.py":
            yield node.lineno, f"trusted constructor {name} called outside scalars.py"
        if name != "lru_cache":
            continue
        sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
        if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
            yield node.lineno, "unbounded lru_cache"
    if module == "cli.py":
        yield from _expression_violations(tree)


def test_sources_are_found():
    assert any(path.name == "star.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_imports_or_unbounded_caches(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = _violations(tree, path.name)
    assert [f"{path.name}:{line}: {what}" for line, what in violations] == []


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
        "from .poly import get_degree_guard\nguard = get_degree_guard()\n",
        "from . import errors\nraise errors.DegreeGuardError('too deep')\n",
        "from .scalars import Coefficient, MU_POLY_ONE\nc = Coefficient(MU_POLY_ONE, MU_POLY_ONE)\n",
        "from . import scalars\np = scalars.MuPoly((1,))\n",
    ],
)
def test_checker_flags_planted_violations(source):
    assert list(_violations(ast.parse(source)))


def test_checker_allows_public_and_foreign_names():
    source = "from .star import BiDiff\nfrom os import _exit\nfrom __future__ import annotations\n"
    assert list(_violations(ast.parse(source))) == []
    guard = "guard = get_degree_guard()\nraise DegreeGuardError('too deep')\n"
    assert list(_violations(ast.parse(guard), "poly.py")) == []
    trusted = "c = Coefficient(MuPoly((2,)), MU_POLY_ONE)\nd = Coefficient.make(c.num, c.den)\n"
    assert list(_violations(ast.parse(trusted), "scalars.py")) == []
    assert list(_violations(ast.parse("d = Coefficient.make(num, den)\n"))) == []


def test_checker_keeps_expression_parsing_in_the_cli_table():
    handler = "def _cmd_limit(args, fetch):\n    return parse_poly(fetch(args.f), space)\n"
    assert [what for _, what in _violations(ast.parse(handler), "cli.py")] == [
        "parse_poly called outside the expression table",
        "fetch called outside the expression table",
    ]
    assert list(_violations(ast.parse(handler), "star.py")) == []
    table = (
        '_EXPRESSIONS = {"f": (lambda text, n: parse_poly(text, phase_space(n)), None)}\n'
        "def _parse_expressions(args, fetch):\n"
        "    args.f = _EXPRESSIONS['f'][0](fetch(args.f), args.n)\n"
    )
    assert list(_violations(ast.parse(table), "cli.py")) == []


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []
