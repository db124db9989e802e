"""Source checks: imports stay at module level, no module imports another
moyal module's underscore-prefixed names, every lru_cache is bounded (by an
int literal or a module-level name bound to one; no `functools.cache`), only
poly.py reads or enforces the degree guard itself and only `poly.degree_guard`
sets and resets it, only poly.py reads the fields of a deferred polynomial or
asks whether a value is deferred (so `poly.bilinear` alone applies the
denominator rule), only scalars.py calls the trusted scalar constructors, in
cli.py only the expression table and its pass read and parse expression
arguments, `perm` is called only in `poly._derivative_piece` (differentiation
has one owner, the shared derivative table), `comb` only in
`poly._binomial_row` (the one binomial slot expansion) and two places
that are not slot maps, `sorted_terms` only in `poly.format_poly` (the
term order has one owner: every witness is a `Poly.leading_term`),
star.py, lie.py and cocycle.py apply no `>>` or `&` (a packed key's bit
fields are read in poly.py alone), only poly.py holds the
block letters "uvw" (`poly._lift_plan` alone reads which block a slot
letter names), no module outside
`__init__.py` imports a name it never uses (a name used only in an annotation
counts), no code writes into a `.terms` dict (a subscript store or `del`, or
`update`, `pop`, `popitem`, `clear` or `setdefault` on it: `poly.bilinear`
returns memoised pieces as the terms of its results), every module-level
function or class is named somewhere else in src or exported by
`__init__.py` (no new test-only code), operators.py stays an independent
verification path (no `DiffOp` or `BiDiff`, and nothing from star.py but
`phase_dimension`), and the package declares no runtime dependency."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "moyal").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


# Everywhere else the guard is enforced through poly.check_degree.
GUARD_NAMES = {"get_degree_guard", "DegreeGuardError"}
# Elsewhere a deferred polynomial is read through split_denominator and terms,
# and products leave the choice of when to split to poly.bilinear.
DEFERRED_FIELDS = {"_numerator", "_denominator", "is_deferred"}
# They skip normalisation: canonical form, == and hash have one owner.
TRUSTED_CONSTRUCTORS = {"Coefficient", "MuPoly"}
# A handler that read its own expression would skip --stdin.
EXPRESSION_READERS = {"parse_poly", "parse_coefficient", "parse_series", "fetch"}
EXPRESSION_SCOPES = {"_EXPRESSIONS", "_parse_expressions"}


# Each name is called only inside its owner (module, function).
CALL_OWNERS = {
    # The one derivative table: every other derivative goes through it.
    "perm": ("poly.py", "_derivative_piece"),
    # The term order has one owner: witnesses are read by `Poly.leading_term`,
    # and only the printer lists the terms in that order.
    "sorted_terms": ("poly.py", "format_poly"),
}
# The guard is set for one block at a time and reset when the block exits.
GUARD_SETTER = ("poly.py", "degree_guard")
# They read packed forms through the methods of poly.Lifted, which owns the key layout.
KEY_LAYOUT_USERS = {"star.py", "lie.py", "cocycle.py"}
KEY_BIT_OPS = (ast.RShift, ast.BitAnd)
# The blocks of a pair or triple space; poly.py translates slot letters into them.
BLOCK_LETTERS = "uvw"
# A `.terms` dict may be a memoised piece that `poly.bilinear` shares with
# every Poly it returns for that pair, so no code writes into one.
TERMS_WRITERS = {"update", "pop", "popitem", "clear", "setdefault"}


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


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


def _owned(tree, module, owner):
    """The ids of the nodes inside the function `owner` = (module, name)."""
    return {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and (module, func.name) == owner
        for node in ast.walk(func)
    }


def _owned_call_violations(tree, module):
    for name, owner in CALL_OWNERS.items():
        owned = _owned(tree, module, owner)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) == name and id(node) not in owned:
                yield node.lineno, f"{name} called outside {owner[0][:-3]}.{owner[1]}"


def _guard_setter_violations(tree, module):
    owned = _owned(tree, module, GUARD_SETTER)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and node.attr in ("set", "reset")
            and getattr(node.value, "id", None) == "_degree_guard" and id(node) not in owned
        ):
            yield node.lineno, f"_degree_guard.{node.attr} outside poly.degree_guard"


def _is_int(node):
    return isinstance(node, ast.Constant) and type(node.value) is int


def _violations(tree, module=""):
    # Module-level names bound to an int literal, the other accepted lru_cache bound.
    int_names = {
        target.id
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and _is_int(stmt.value)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }
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
        if (
            isinstance(node, ast.ImportFrom) and node.module == "functools"
            and any(alias.name == "cache" for alias in node.names)
        ) or (
            isinstance(node, ast.Attribute) and node.attr == "cache"
            and getattr(node.value, "id", None) == "functools"
        ):
            yield node.lineno, "unbounded functools.cache"
        if isinstance(node, ast.Attribute) and node.attr in DEFERRED_FIELDS and module != "poly.py":
            yield node.lineno, f"{node.attr} of a deferred polynomial read outside poly.py"
        if (
            module in KEY_LAYOUT_USERS
            and isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, KEY_BIT_OPS)
        ):
            yield node.lineno, f"{type(node.op).__name__} outside poly.py, which owns the key layout"
        if isinstance(node, ast.Constant) and node.value == BLOCK_LETTERS and module != "poly.py":
            yield node.lineno, f"block letters {BLOCK_LETTERS!r} outside poly.py, which translates slot maps"
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)) and _is_terms(node.value):
            yield node.lineno, "a .terms dict written"
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr in TERMS_WRITERS and _is_terms(node.func.value):
            yield node.lineno, f".terms.{node.func.attr} writes into a .terms dict"
        name = _called_name(node)
        if name in GUARD_NAMES and module != "poly.py":
            yield node.lineno, f"{name} called outside poly.py"
        if name in TRUSTED_CONSTRUCTORS and module != "scalars.py":
            yield node.lineno, f"trusted constructor {name} called outside scalars.py"
        if name != "lru_cache":
            continue
        sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
        if not all(_is_int(size) or getattr(size, "id", None) in int_names for size in sizes):
            yield node.lineno, "lru_cache without an int bound"
    if module == "cli.py":
        yield from _expression_violations(tree)
    yield from _owned_call_violations(tree, module)
    yield from _guard_setter_violations(tree, module)


def _annotation_names(node):
    """Names in an annotation, quoted ones included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def _unused_imports(tree):
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], stmt.lineno) for a in stmt.names)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            imported.update((a.asname or a.name, stmt.lineno) for a in stmt.names)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                used.update(_annotation_names(annotation))
    for name, line in imported.items():
        if name not in used:
            yield line, f"{name} imported and never used"


# Module-level names that only tests and bench/ use; no other joins them.
TEST_ONLY = {"apply_bracket_kernel", "cocycle_defect"}


def _named(node):
    """Every name `node` reads, imports or puts in an annotation; an attribute
    counts by its name alone, so a method can hide a function of the same name
    but a used name is never missed."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name
        for annotation in (getattr(sub, "annotation", None), getattr(sub, "returns", None)):
            if annotation is not None:
                yield from _annotation_names(annotation)


def _unreferenced(modules):
    """(module, line, name) of each module-level function or class in
    `modules` ({name: tree}) that no other top-level statement names; the
    imports of `__init__.py` are statements too, so an export counts."""
    defined, named = [], []
    for module, tree in modules.items():
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = module, stmt.name
                defined.append((module, stmt.lineno, stmt.name))
            named.append((owner, set(_named(stmt))))
    for module, line, name in defined:
        if not any(name in names for owner, names in named if owner != (module, name)):
            yield module, line, name


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
        "from functools import cache\n@cache\ndef f(): pass\n",
        "import functools\n@functools.cache\ndef f(): pass\n",
        "from functools import lru_cache\nSIZE = None\n@lru_cache(maxsize=SIZE)\ndef f(): pass\n",
        "from functools import lru_cache\ndef f(size):\n    return lru_cache(maxsize=size)\n",
        "from .star import BiDiff, _check_operands\n",
        "from moyal.poly import _degree_guard\n",
        "from . import _private\n",
        "from .poly import get_degree_guard\nguard = get_degree_guard()\n",
        "from . import errors\nraise errors.DegreeGuardError('too deep')\n",
        "from .scalars import Coefficient, MU_POLY_ONE\nc = Coefficient(MU_POLY_ONE, MU_POLY_ONE)\n",
        "from . import scalars\np = scalars.MuPoly((1,))\n",
        "p, den = out._numerator, out._denominator\n",
        "def f(x):\n    return x._numerator.terms\n",
        "if f.is_deferred or g.is_deferred:\n    f, den = f.split_denominator()\n",
        "from math import perm\nfactor = perm(5, 2)\n",
        "import math\ndef _derivative_piece(d, t):\n    return math.perm(t, d)\n",
        "_degree_guard.set(8)\n",
        "p.terms[exps] = coeff\n",
        "self.terms[exps] += coeff\n",
        "del out.terms[exps]\n",
        "merged.terms.update(block.terms)\n",
        "p.terms.pop(exps, None)\n",
        "p.terms.popitem()\n",
        "self.images.terms.clear()\n",
        "x.poly.terms.setdefault(exps, coeff)\n",
        'blocks = "uvw"[: len(target) // width]\n',
        "for exps, coeff in b.sorted_terms():\n    pass\n",
    ],
)
def test_checker_flags_planted_violations(source):
    assert list(_violations(ast.parse(source)))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in _unused_imports(tree)] == []


def test_unused_import_checker():
    planted = "import math, random\nfrom .poly import Poly, Space\nx = math.pi\np: Poly\n"
    assert [what for _, what in _unused_imports(ast.parse(planted))] == [
        "random imported and never used",
        "Space imported and never used",
    ]
    allowed = (
        "from __future__ import annotations\nimport os.path\nfrom fractions import Fraction\n"
        "from .scalars import MuPoly\nfrom . import scalars as sc\n"
        "def f(q: Fraction) -> 'tuple[MuPoly, int]':\n    return os.sep, sc.ONE\n"
    )
    assert list(_unused_imports(ast.parse(allowed))) == []


def test_checker_allows_public_and_foreign_names():
    source = "from .star import BiDiff\nfrom os import _exit\nfrom __future__ import annotations\n"
    assert list(_violations(ast.parse(source))) == []
    guard = "guard = get_degree_guard()\nraise DegreeGuardError('too deep')\n"
    assert list(_violations(ast.parse(guard), "poly.py")) == []
    deferred = "p, den = self._numerator, self._denominator\nsplit = f.is_deferred\n"
    assert list(_violations(ast.parse(deferred), "poly.py")) == []
    trusted = "c = Coefficient(MuPoly((2,)), MU_POLY_ONE)\nd = Coefficient.make(c.num, c.den)\n"
    assert list(_violations(ast.parse(trusted), "scalars.py")) == []
    assert list(_violations(ast.parse("d = Coefficient.make(num, den)\n"))) == []
    owner = "import math\ndef _derivative_piece(d, t):\n    return math.perm(t, d)\n"
    assert list(_violations(ast.parse(owner), "poly.py")) == []
    printer = "def format_poly(poly):\n    return poly.sorted_terms()\n"
    assert list(_violations(ast.parse(printer), "poly.py")) == []
    assert [what for _, what in _violations(ast.parse("first = p.sorted_terms()[0]\n"), "poly.py")] == [
        "sorted_terms called outside poly.format_poly"
    ]
    setter = "def degree_guard(bound):\n    token = _degree_guard.set(bound)\n    _degree_guard.reset(token)\n"
    assert list(_violations(ast.parse(setter), "poly.py")) == []
    letters = 'blocks = "uvw"[: len(target) // width]\nslots = ("u", "vw")\n'
    assert list(_violations(ast.parse(letters), "poly.py")) == []
    assert len(list(_violations(ast.parse(letters), "star.py"))) == 1
    assert len(list(_violations(ast.parse(setter), "cli.py"))) == 2
    bounded = (
        "from functools import lru_cache\nSIZE = 64\n@lru_cache(maxsize=8)\ndef f(): pass\n"
        "def g():\n    return lru_cache(maxsize=SIZE)(f), lru_cache(SIZE)(f)\n"
    )
    assert list(_violations(ast.parse(bounded))) == []
    # Reading a .terms dict, or writing into a dict of one's own, is fine.
    reads = (
        "c = p.terms[exps]\nn = len(p.terms)\nd = dict(p.terms)\nv = p.terms.get(exps)\n"
        "terms = {}\nterms[exps] = c\ndel terms[exps]\nterms.update(p.terms)\nimages.clear()\n"
    )
    assert list(_violations(ast.parse(reads), "poly.py")) == []


def test_perm_is_called_once_in_src():
    calls = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _called_name(node) == "perm"
    ]
    # test_no_function_imports_or_unbounded_caches places it in poly._derivative_piece.
    assert calls == ["poly.py"]


def _comb_callers(tree, module):
    """(module, innermost enclosing function or None) for each call of comb."""
    owner = {
        id(node): func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
    }
    return [
        (module, owner.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "comb"
    ]


def test_comb_has_one_slot_map_caller_in_src():
    calls = sorted(
        call for path in SOURCES for call in _comb_callers(ast.parse(path.read_text()), path.name)
    )
    # One binomial slot expansion, `poly._binomial_row`, the table of images
    # that `poly.lift_slots` reads; next to it, the Weyl reordering
    # coefficients (two binomials per step) and the centre's monomial count.
    assert calls == [
        ("cocycle.py", "dual_monomials"),
        ("operators.py", "_reorder_steps"),
        ("operators.py", "_reorder_steps"),
        ("poly.py", "_binomial_row"),
    ]


def test_comb_callers_are_found_in_nested_and_module_scopes():
    source = (
        "from math import comb\nn = comb(4, 2)\n"
        "def outer(e):\n    def inner(j):\n        return comb(e, j)\n    return [inner(j) for j in range(e)]\n"
    )
    assert sorted(_comb_callers(ast.parse(source), "x.py"), key=str) == [("x.py", "inner"), ("x.py", None)]


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


def test_checker_keeps_key_bits_in_poly():
    fold = "x = key >> shift & mask\nkey &= keep\nkey >>= 2\n"
    for module in sorted(KEY_LAYOUT_USERS):
        assert [what.split()[0] for _, what in _violations(ast.parse(fold), module)] == [
            "BitAnd", "RShift", "BitAnd", "RShift",
        ]
    assert list(_violations(ast.parse(fold), "poly.py")) == []
    # A left shift scales a digit bound; it reads no field.
    bound = "digit_bits = digit_width(3 * norm * norm << degree)\n"
    assert list(_violations(ast.parse(bound), "lie.py")) == []


def test_no_test_only_names_in_src():
    modules = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    unreferenced = list(_unreferenced(modules))
    assert [f"{m}:{line}: {name}" for m, line, name in unreferenced if name not in TEST_ONLY] == []
    # The allowlist only shrinks: a name that gains a caller in src, or goes, leaves it.
    assert {name for _, _, name in unreferenced} == TEST_ONLY


def test_test_only_checker():
    planted = {
        "a.py": ast.parse(
            "def used(): pass\ndef recursive(k):\n    return recursive(k - 1)\n"
            "class Shape: pass\ndef helper(s: 'Shape'): return used()\nclass Orphan: pass\n"
        ),
        "b.py": ast.parse("from .a import helper\nx = helper\n"),
        "__init__.py": ast.parse("from .c import exported\n"),
        "c.py": ast.parse("def exported(): pass\n"),
    }
    assert sorted(name for _, _, name in _unreferenced(planted)) == ["Orphan", "recursive"]


# operators.py checks the star machinery, so it runs on none of it.
MACHINERY = {"DiffOp", "BiDiff"}
STAR_NAMES = {"phase_dimension"}


def _independence_violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[-1] == "star":
                    yield node.lineno, f"{alias.name} imported"
        elif isinstance(node, ast.ImportFrom):
            from_star = (node.module or "").split(".")[-1] == "star"
            for alias in node.names:
                if alias.name in MACHINERY or alias.name == "star":
                    yield node.lineno, f"{alias.name} imported"
                elif from_star and alias.name not in STAR_NAMES:
                    yield node.lineno, f"{alias.name} imported from star"
        elif isinstance(node, ast.Attribute) and node.attr in MACHINERY:
            yield node.lineno, f"{node.attr} read"


def test_operators_is_an_independent_path():
    tree = ast.parse((ROOT / "src" / "moyal" / "operators.py").read_text())
    assert list(_independence_violations(tree)) == []


def test_independence_checker_flags_planted_violations():
    planted = (
        "from .poly import DiffOp, Poly\nfrom .star import phase_dimension, u_map\n"
        "from . import star\nimport moyal.star\nfrom moyal.star import BiDiff\n"
        "op = poly.DiffOp(p)\n"
    )
    assert [what for _, what in _independence_violations(ast.parse(planted))] == [
        "DiffOp imported",
        "u_map imported from star",
        "star imported",
        "moyal.star imported",
        "BiDiff imported",
        "DiffOp read",
    ]
    allowed = "from .poly import Poly, bilinear\nfrom .star import phase_dimension\n"
    assert list(_independence_violations(ast.parse(allowed))) == []


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []
