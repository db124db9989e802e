"""Command-line interface: parse expressions, dispatch, print reports.

Every subcommand prints a human-readable result by default or, with
``--json``, a deterministic machine-readable document with the fixed keys

    {"command", "status", "result", "witness", "defects"}

where status is "ok" (exit 0), "fail" (exit 1: a mathematical failure such
as a cocycle violation, a "neither" classification, or a pole at mu = 0), or
"error" (exit 2: usage or parse problems, sizes below their minimum, a
--n above `MAX_N`, a centre enumeration above `cocycle.CENTER_MONOMIAL_LIMIT`
monomials, a power whose integers would pass Python's int-string limit
(`sys.get_int_max_str_digits`) and so could not be printed, or a reader that
closed standard output early).  JSON output is byte-identical
across runs on identical input.  Report records reach JSON through one value
rule, `_jsonable`: a matrix is its rows, a list or tuple a list, a record its
fields that are not None, and any other value such as a polynomial or a
coefficient its str.

The environment variable MOYAL_MAX_DEGREE sets the total-degree guard for
the command.  The expression arguments are --chi (a polynomial in
u1..u2n), --m (rows of constants), --series (a list of constants), the
operands f and g (phase-space polynomials), --a (a bracket kernel) and --b (a
kernel exponent), each read over the subcommand's --n.  With --stdin, those
written as '-' are read from standard input, one line each, in that fixed
order whatever their order on the command line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import sys

from .cocycle import RawKernelExponent, center_basis, cocycle_check, factorize
from .errors import ExpressionError, FactorizationError, MoyalError, PoleAtMuZeroError
from .expressions import parse_coefficient, parse_poly, parse_series
from .lie import (
    LieKernelError,
    RawLieKernel,
    bidiff_coefficients,
    classify_h,
    extract_omega,
    jacobi_defect,
    lie_axiom_check,
    theorem2_pipeline,
)
from .linalg import Matrix
from .operators import nc_mul, weyl_quantize, weyl_symbol
from .poly import (
    Poly,
    degree_guard,
    format_term,
    pair_space,
    phase_space,
    sigma_space,
    triple_space,
)
from .star import StarKernel, bracket, classical_limit, poisson, star, u_map

# The largest --n: kernel matrices have (2n)^2 entries.
MAX_N = 64


class _Outcome:
    def __init__(self, status: str, result=None, witness=None, defects=None, human=""):
        self.status = status
        self.result = result
        self.witness = witness
        self.defects = defects
        self.human = human

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "fail": 1, "error": 2}[self.status]


def _jsonable(value):
    """The JSON form of a report value (see the module docstring)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Matrix):
        value = value.rows
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if dataclasses.is_dataclass(value):
        return _fields(value, *(f.name for f in dataclasses.fields(value)))
    return str(value)


def _fields(record, *names) -> dict:
    """{name: _jsonable(record.name)} for the named attributes that are not None."""
    values = ((name, getattr(record, name)) for name in names)
    return {name: _jsonable(value) for name, value in values if value is not None}


def _stdin_reader():
    lines = None

    def fetch(value: str) -> str:
        nonlocal lines
        if value != "-":
            return value
        if lines is None:
            lines = iter(sys.stdin.read().splitlines())
        try:
            return next(lines)
        except StopIteration:
            raise ExpressionError("ran out of stdin lines for '-' arguments") from None

    return fetch


# -- expression arguments ----------------------------------------------------

# Each expression argument: its parser, given the text and --n, and its help.
# `_parse_expressions` reads them, and '-' ones take stdin lines, in this order.
_EXPRESSIONS = {
    "chi": (lambda text, n: parse_poly(text, sigma_space(n)), "chi (expression in u1..u2n)"),
    "m": (
        lambda text, n: Matrix(
            [parse_coefficient(entry.strip()) for entry in row.split(",")]
            for row in text.split(";")
        ),
        "M: semicolon-separated rows of comma-separated constant expressions",
    ),
    "series": (lambda text, n: parse_series(text), "comma-separated constants"),
    "f": (lambda text, n: parse_poly(text, phase_space(n)), None),
    "g": (lambda text, n: parse_poly(text, phase_space(n)), None),
    "a": (
        lambda text, n: RawLieKernel(n, parse_poly(text, pair_space(n))),
        "kernel A over u, v slots",
    ),
    "b": (
        lambda text, n: RawKernelExponent(n, parse_poly(text, pair_space(n))),
        "exponent b over u, v slots",
    ),
}


def _parse_expressions(args, fetch) -> None:
    """Replace each expression argument given on `args` with its parsed value.

    The star-product kernel is built as soon as --chi and --m are read, so
    that a kernel error wins over an error in an operand.
    """
    for name, (parse, _) in _EXPRESSIONS.items():
        text = getattr(args, name, None)
        if text is not None:
            setattr(args, name, parse(fetch(text), args.n))
        if name == "m" and "kernel" in args:
            args.kernel = _resolve_kernel(args)


def _resolve_kernel(args) -> StarKernel:
    base = (StarKernel.standard if args.kernel == "standard" else StarKernel.moyal)(args.n)
    chi = base.chi if args.chi is None else args.chi
    return StarKernel(args.n, chi, base.m if args.m is None else args.m)


def _poly_outcome(p: Poly) -> _Outcome:
    text = str(p)
    return _Outcome("ok", result={"poly": text}, human=text)


# -- subcommand handlers -----------------------------------------------------


def _cmd_product(args) -> _Outcome:
    if args.command == "poisson":
        return _poly_outcome(poisson(args.f, args.g))
    product = star if args.command == "star" else bracket
    return _poly_outcome(product(args.f, args.g, args.kernel))


def _cmd_limit(args) -> _Outcome:
    try:
        return _poly_outcome(classical_limit(args.f))
    except PoleAtMuZeroError as err:
        return _Outcome(
            "fail",
            witness={"kind": "pole-at-mu-zero", "term": err.term},
            human=f"pole at mu = 0: {err.term}",
        )


def _cmd_u_map(args) -> _Outcome:
    return _poly_outcome(u_map(args.f, args.chi))


def _cmd_oracle(args) -> _Outcome:
    op = weyl_quantize(args.f)
    if args.g is None:
        result = {"operator": str(op), "symbol": str(weyl_symbol(op))}
        return _Outcome("ok", result=result, human=str(op))
    product = nc_mul(op, weyl_quantize(args.g))
    symbol = weyl_symbol(product)
    result = {"operator_product": str(product), "symbol": str(symbol)}
    return _Outcome(
        "ok", result=result, human=f"operator: {product}\nsymbol:   {symbol}"
    )


def _violation_payload(v) -> dict:
    return dict(_fields(v, "stage", "point", "lhs", "rhs"), monomial=v.monomial_str())


def _cmd_check_cocycle(args) -> _Outcome:
    violation = cocycle_check(args.b)
    if violation is None:
        return _Outcome("ok", result={"cocycle": "pass"}, human="pass")
    payload = _violation_payload(violation)
    human = f"violation ({violation.stage}): {payload['monomial']}"
    if violation.point is not None:
        human += f"; at point {payload['point']}: {payload['lhs']} != {payload['rhs']}"
    return _Outcome("fail", witness=payload, human=human)


def _cmd_factorize(args) -> _Outcome:
    try:
        fact = factorize(args.b)
    except FactorizationError as err:
        witness = {"stage": err.stage, "message": str(err)}
        if hasattr(err.witness, "stage"):
            witness.update(_violation_payload(err.witness))
        return _Outcome("fail", witness=witness, human=str(err))
    names = "chi", "m", "rank", "pairings", "uniform_pairing", "darboux_basis", "kernel_basis", "nondegenerate"
    result = _fields(fact, *names)
    human = (
        f"chi = {fact.chi}\n"
        f"M = {fact.m!r}\n"
        f"rank = {fact.rank}, pairings = [{', '.join(result['pairings'])}], "
        f"uniform = {fact.uniform_pairing}\n"
        f"center: {'trivial' if fact.nondegenerate else 'nontrivial'}"
    )
    return _Outcome("ok", result=result, human=human)


def _cmd_center(args) -> _Outcome:
    try:
        basis = center_basis(args.b, args.max_degree)
    except FactorizationError as err:
        return _Outcome("fail", witness={"stage": err.stage, "message": str(err)}, human=str(err))
    result = {"generators": _jsonable(basis)}
    return _Outcome("ok", result=result, human="\n".join(str(p) for p in basis))


def _axiom_payload(raw, report) -> tuple[dict, dict | None]:
    result = {
        "antisymmetry": "pass" if report.antisymmetric else "violation",
        "constants_annihilate": "pass" if report.constants_annihilate else "violation",
        "jacobi": report.jacobi_status,
    }
    defects = None
    if report.jacobi_status != "exact":
        defects = {}
        # A defect with a mu-denominator has no mu-order parts.
        defect = jacobi_defect(raw)
        if all(c.den.is_one for c in defect.terms.values()):
            defects["mu_orders"] = {str(k): str(v) for k, v in defect.mu_components().items()}
        if report.defect_degree_range is not None:
            defects["degree_range"] = list(report.defect_degree_range)
    return result, defects


def _cmd_check_lie(args) -> _Outcome:
    raw = args.a
    report = lie_axiom_check(raw, truncation_degree=args.truncation_degree)
    result, defects = _axiom_payload(raw, report)
    witness = None
    if not report.passed:
        jacobi = report.jacobi_status == "violation" and report.jacobi_witness
        witness = {
            key: format_term(space, *term)
            for key, term, space in [
                ("antisymmetry", report.antisymmetry_witness, raw.a.space),
                ("constants", report.constants_witness, raw.a.space),
                ("jacobi", jacobi, triple_space(raw.n)),
            ]
            if term
        }
    status = "ok" if report.passed else "fail"
    human_lines = [f"{k}: {v}" for k, v in result.items()]
    if defects:
        human_lines.append(f"defects: {defects}")
    if witness:
        human_lines.append(f"witness: {witness}")
    return _Outcome(status, result=result, witness=witness, defects=defects, human="\n".join(human_lines))


def _cmd_extract_omega(args) -> _Outcome:
    try:
        omega = extract_omega(args.a)
    except LieKernelError as err:
        return _Outcome("fail", witness={"message": str(err)}, human=str(err))
    basis = omega.nullspace()
    rank = omega.ncols - len(basis)
    result = {"omega": _jsonable(omega), "rank": rank, "kernel_basis": _jsonable(basis)}
    human = f"omega = {omega!r}\nrank = {rank}"
    if basis:
        human += f"\nkernel basis: {result['kernel_basis']}"
    return _Outcome("ok", result=result, human=human)


def _cmd_classify_h(args) -> _Outcome:
    h = classify_h(args.series)
    status = "fail" if h.tag == "neither" else "ok"
    if h.tag == "sinh":
        human = f"sinh: mu^2 = {h.mu_squared}, scale (c*mu) = {h.scale}"
    elif h.tag == "linear":
        human = f"linear: scale = {h.scale}"
    elif h.tag == "zero":
        human = "zero"
    else:
        human = f"neither: index {h.witness_index} expected {h.expected}, found {h.found}"
    return _Outcome(status, result=_jsonable(h), human=human)


def _cmd_theorem2(args) -> _Outcome:
    raw = args.a
    report = theorem2_pipeline(
        raw,
        fit_degree=args.fit_degree,
        center_degree=args.center_degree,
        verify_degree=args.verify_degree,
    )
    axioms, defects = _axiom_payload(raw, report.axioms)
    # Unlike factorize, which keeps an empty pairings and kernel_basis (M = 0),
    # theorem2 leaves out an empty kernel_basis and center_generators.
    lists = [name for name in ("kernel_basis", "center_generators") if getattr(report, name)]
    names = ("status", "omega", "rank", "chi", "h_series", "h_class", "isomorphism_note", *lists)
    result = dict(_fields(report, *names), axioms=axioms)
    witness = None
    if report.residual_witness is not None:
        witness = {"residual": format_term(raw.a.space, *report.residual_witness)}
    if report.failure:
        witness = dict(witness or {}, message=report.failure)
    status = "ok" if report.passed else "fail"
    human_lines = [f"status: {report.status}"]
    if "chi" in result:
        human_lines.append(f"chi = {result['chi']}")
    if "h_class" in result:
        human_lines.append(f"h: {result['h_class']}")
    if "center_generators" in result:
        generators = ", ".join(g["generator"] for g in result["center_generators"])
        human_lines.append(f"center generators: {generators}")
    if report.isomorphism_note:
        human_lines.append(report.isomorphism_note)
    if witness:
        human_lines.append(f"witness: {witness}")
    return _Outcome(status, result=result, witness=witness, defects=defects, human="\n".join(human_lines))


def _cmd_coeffs(args) -> _Outcome:
    table = bidiff_coefficients(args.a, args.rmax, args.smax)
    nonzero = {
        f"{r},{j},{s},{k}": str(c)
        for (r, j, s, k), c in sorted(table.items())
        if c
    }
    result = {
        "rmax": args.rmax,
        "smax": args.smax,
        "entries": nonzero,
        "total_entries": len(table),
    }
    human = "\n".join(f"b[{key}] = {val}" for key, val in nonzero.items()) or "all zero"
    return _Outcome("ok", result=result, human=human)


# -- dispatch ----------------------------------------------------------------


def _command(handler, help_text, *operands, **sizes):
    return handler, help_text, operands, sizes


# Each subcommand: its handler, its help, its expression operands ("--a" an
# option, "g?" an optional positional, "--kernel" the kernel options) and its
# non-negative sizes with their defaults.
_HANDLERS = {
    "star": _command(_cmd_product, "star product of two phase-space polynomials", "--kernel", "f", "g"),
    "bracket": _command(_cmd_product, "bracket (star commutator over 2*mu)", "--kernel", "f", "g"),
    "poisson": _command(_cmd_product, "canonical Poisson bracket", "f", "g"),
    "limit": _command(_cmd_limit, "classical limit: substitute mu = 0", "f"),
    "u-map": _command(_cmd_u_map, "apply the ordering-change map exp(chi(-i d/dz))", "--chi", "f"),
    "oracle": _command(_cmd_oracle, "operator route: quantize, multiply, map back", "f", "g?"),
    "check-cocycle": _command(_cmd_check_cocycle, "check a kernel exponent for associativity", "--b"),
    "factorize": _command(
        _cmd_factorize, "factor an associative exponent into (chi, M, Darboux data)", "--b"
    ),
    "center": _command(
        _cmd_center, "monomial basis of the center, up to a degree bound", "--b", max_degree=2
    ),
    "check-lie": _command(
        _cmd_check_lie,
        "check bracket-kernel axioms (antisymmetry, Jacobi, constants)",
        "--a",
        truncation_degree=None,
    ),
    "extract-omega": _command(
        _cmd_extract_omega, "read the antisymmetric matrix omega off a bracket kernel", "--a"
    ),
    "classify-h": _command(_cmd_classify_h, "classify an odd coefficient list a1, a3, ...", "--series"),
    "theorem2": _command(
        _cmd_theorem2,
        "full bracket-kernel classification pipeline",
        "--a",
        fit_degree=6,
        center_degree=2,
        verify_degree=None,
    ),
    "coeffs": _command(_cmd_coeffs, "bidifferential coefficient table (n = 1)", "--a", rmax=4, smax=4),
}


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError so that `run` can report usage errors as JSON."""

    def error(self, message):
        raise _UsageError(self, message)


def _at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moyal",
        description="Exact star products, brackets, and kernel analysis on "
        "phase-space polynomials.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--stdin",
        action="store_true",
        help="read '-' expression arguments (--chi, --m, --series, f, g, --a, --b) "
        "from standard input, one line each, in that order",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, operands, sizes) in _HANDLERS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--n", type=_at_least(1, MAX_N), default=1, help="configuration dimension")
        for operand in operands:
            name = operand.strip("-?")
            if operand == "--kernel":
                p.add_argument(
                    "--kernel",
                    choices=["moyal", "standard"],
                    default="moyal",
                    help="built-in kernel (chi = 0 resp. mu*sum u_i u_{n+i}; M = mu*J)",
                )
                for option in ("chi", "m"):
                    help_text = f"override {_EXPRESSIONS[option][1]}"
                    p.add_argument(f"--{option}", help=help_text)
            elif operand.startswith("--"):
                p.add_argument(operand, required=True, help=_EXPRESSIONS[name][1])
            else:
                nargs = "?" if operand.endswith("?") else None
                p.add_argument(name, nargs=nargs, help=_EXPRESSIONS[name][1])
        for size, default in sizes.items():
            p.add_argument("--" + size.replace("_", "-"), type=_at_least(0), default=default)
    return parser


def _print_json(command, outcome: _Outcome):
    doc = {
        "command": command,
        "status": outcome.status,
        "result": outcome.result,
        "witness": outcome.witness,
        "defects": outcome.defects,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))


def _degree_guard_from_env():
    """A context that holds the guard MOYAL_MAX_DEGREE sets, when it is set."""
    guard = os.environ.get("MOYAL_MAX_DEGREE")
    if not guard:
        return contextlib.nullcontext()
    try:
        bound = int(guard)
        if bound < 1:
            raise ValueError
    except ValueError:
        raise ValueError("MOYAL_MAX_DEGREE must be a positive integer") from None
    return degree_guard(bound)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        if "--json" not in argv:
            argparse.ArgumentParser.error(err.parser, str(err))  # usage text, exit 2
        head = list(itertools.takewhile(lambda token: token.startswith("-"), argv))
        rest = argv[len(head):]
        command = rest[0] if rest and rest[0] in _HANDLERS else None
        as_json, outcome = True, _Outcome("error", witness={"message": str(err)})
    else:
        command, as_json = args.command, args.json
        fetch = _stdin_reader() if args.stdin else (lambda value: value)
        try:
            with _degree_guard_from_env():
                _parse_expressions(args, fetch)
                outcome = _HANDLERS[command][0](args)
        except ExpressionError as err:
            outcome = _Outcome("error", witness={"message": str(err), "token": err.token}, human=f"error: {err}")
        except (MoyalError, ValueError, ZeroDivisionError) as err:
            outcome = _Outcome("error", witness={"message": str(err)}, human=f"error: {err}")
    try:
        if as_json:
            _print_json(command, outcome)
        else:
            stream = sys.stderr if outcome.status == "error" else sys.stdout
            print(outcome.human, file=stream)
        sys.stdout.flush()
    except BrokenPipeError:
        # Keep the interpreter's flush at exit from failing on the same pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return outcome.exit_code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
