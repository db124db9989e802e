"""Command-line interface: parse expressions, dispatch, print reports.

Every subcommand prints a human-readable result by default or, with
``--json``, a deterministic machine-readable document with the fixed keys

    {"command", "status", "result", "witness", "defects"}

where status is "ok" (exit 0), "fail" (exit 1: a mathematical failure such
as a cocycle violation, a "neither" classification, or a pole at mu = 0), or
"error" (exit 2: usage or parse problems, sizes below their minimum, or a
reader that closed standard output early).  JSON output is byte-identical
across runs on identical input.

The environment variable MOYAL_MAX_DEGREE sets the total-degree guard for
the command.  With --stdin, expression arguments written as '-' are read from
standard input, one per line, in command-line order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import scalars
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
    pair_space,
    phase_space,
    set_degree_guard,
    sigma_space,
    triple_space,
)
from .star import StarKernel, bracket, classical_limit, poisson, star, u_map


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


def _matrix_rows(m: Matrix) -> list[list[str]]:
    return [[str(c) for c in row] for row in m.rows]


def _vectors(vs) -> list[list[str]]:
    return [[str(c) for c in v] for v in vs]


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


def _resolve_kernel(args, n: int) -> StarKernel:
    base = StarKernel.standard(n) if args.kernel == "standard" else StarKernel.moyal(n)
    chi = base.chi
    m = base.m
    if getattr(args, "chi", None):
        chi = parse_poly(args.chi, sigma_space(n))
    if getattr(args, "m", None):
        rows = [
            [parse_coefficient(entry.strip()) for entry in row_text.split(",")]
            for row_text in args.m.split(";")
        ]
        m = Matrix(rows)
    return StarKernel(n, chi, m)


def _poly_outcome(p: Poly) -> _Outcome:
    text = str(p)
    return _Outcome("ok", result={"poly": text}, human=text)


# -- subcommand handlers -----------------------------------------------------


def _cmd_star(args, fetch) -> _Outcome:
    n = args.n
    kernel = _resolve_kernel(args, n)
    f = parse_poly(fetch(args.f), phase_space(n))
    g = parse_poly(fetch(args.g), phase_space(n))
    return _poly_outcome(star(f, g, kernel))


def _cmd_bracket(args, fetch) -> _Outcome:
    n = args.n
    kernel = _resolve_kernel(args, n)
    f = parse_poly(fetch(args.f), phase_space(n))
    g = parse_poly(fetch(args.g), phase_space(n))
    return _poly_outcome(bracket(f, g, kernel))


def _cmd_poisson(args, fetch) -> _Outcome:
    n = args.n
    f = parse_poly(fetch(args.f), phase_space(n))
    g = parse_poly(fetch(args.g), phase_space(n))
    return _poly_outcome(poisson(f, g))


def _cmd_limit(args, fetch) -> _Outcome:
    f = parse_poly(fetch(args.f), phase_space(args.n))
    try:
        return _poly_outcome(classical_limit(f))
    except PoleAtMuZeroError as err:
        return _Outcome(
            "fail",
            witness={"kind": "pole-at-mu-zero", "term": err.term},
            human=f"pole at mu = 0: {err.term}",
        )


def _cmd_u_map(args, fetch) -> _Outcome:
    n = args.n
    chi = parse_poly(args.chi, sigma_space(n))
    f = parse_poly(fetch(args.f), phase_space(n))
    return _poly_outcome(u_map(f, chi))


def _cmd_oracle(args, fetch) -> _Outcome:
    n = args.n
    f = parse_poly(fetch(args.f), phase_space(n))
    if args.g is None:
        op = weyl_quantize(f)
        back = weyl_symbol(op)
        result = {"operator": str(op), "symbol": str(back)}
        return _Outcome("ok", result=result, human=str(op))
    g = parse_poly(fetch(args.g), phase_space(n))
    product = nc_mul(weyl_quantize(f), weyl_quantize(g))
    symbol = weyl_symbol(product)
    result = {"operator_product": str(product), "symbol": str(symbol)}
    return _Outcome(
        "ok", result=result, human=f"operator: {product}\nsymbol:   {symbol}"
    )


def _violation_payload(v) -> dict:
    payload = {
        "stage": v.stage,
        "monomial": v.monomial_str(),
    }
    if v.point is not None:
        payload["point"] = list(v.point)
        payload["lhs"] = str(v.lhs)
        payload["rhs"] = str(v.rhs)
    return payload


def _cmd_check_cocycle(args, fetch) -> _Outcome:
    n = args.n
    raw = RawKernelExponent(n, parse_poly(fetch(args.b), pair_space(n)))
    violation = cocycle_check(raw)
    if violation is None:
        return _Outcome("ok", result={"cocycle": "pass"}, human="pass")
    payload = _violation_payload(violation)
    human = f"violation ({violation.stage}): {payload['monomial']}"
    if violation.point is not None:
        human += f"; at point {payload['point']}: {payload['lhs']} != {payload['rhs']}"
    return _Outcome("fail", witness=payload, human=human)


def _cmd_factorize(args, fetch) -> _Outcome:
    n = args.n
    raw = RawKernelExponent(n, parse_poly(fetch(args.b), pair_space(n)))
    try:
        fact = factorize(raw)
    except FactorizationError as err:
        witness = {"stage": err.stage, "message": str(err)}
        if hasattr(err.witness, "stage"):
            witness.update(_violation_payload(err.witness))
        return _Outcome("fail", witness=witness, human=str(err))
    result = {
        "chi": str(fact.chi),
        "m": _matrix_rows(fact.m),
        "rank": fact.rank,
        "pairings": [str(c) for c in fact.pairings],
        "uniform_pairing": fact.uniform_pairing,
        "darboux_basis": _matrix_rows(fact.darboux_basis),
        "kernel_basis": _vectors(fact.kernel_basis),
        "nondegenerate": fact.nondegenerate,
    }
    human = (
        f"chi = {fact.chi}\n"
        f"M = {fact.m!r}\n"
        f"rank = {fact.rank}, pairings = [{', '.join(str(c) for c in fact.pairings)}], "
        f"uniform = {fact.uniform_pairing}\n"
        f"center: {'trivial' if fact.nondegenerate else 'nontrivial'}"
    )
    return _Outcome("ok", result=result, human=human)


def _cmd_center(args, fetch) -> _Outcome:
    n = args.n
    raw = RawKernelExponent(n, parse_poly(fetch(args.b), pair_space(n)))
    try:
        basis = center_basis(raw, args.max_degree)
    except FactorizationError as err:
        return _Outcome("fail", witness={"stage": err.stage, "message": str(err)}, human=str(err))
    result = {"generators": [str(p) for p in basis]}
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


def _cmd_check_lie(args, fetch) -> _Outcome:
    n = args.n
    raw = RawLieKernel(n, parse_poly(fetch(args.a), pair_space(n)))
    report = lie_axiom_check(raw, truncation_degree=args.truncation_degree)
    result, defects = _axiom_payload(raw, report)
    witness = None
    if not report.passed:
        pieces = {}
        if report.antisymmetry_witness:
            exps, coeff = report.antisymmetry_witness
            pieces["antisymmetry"] = str(Poly.monomial(raw.a.space, exps, coeff))
        if report.constants_witness:
            exps, coeff = report.constants_witness
            pieces["constants"] = str(Poly.monomial(raw.a.space, exps, coeff))
        if report.jacobi_status == "violation" and report.jacobi_witness:
            exps, coeff = report.jacobi_witness
            pieces["jacobi"] = str(Poly.monomial(triple_space(n), exps, coeff))
        witness = pieces
    status = "ok" if report.passed else "fail"
    human_lines = [f"{k}: {v}" for k, v in result.items()]
    if defects:
        human_lines.append(f"defects: {defects}")
    if witness:
        human_lines.append(f"witness: {witness}")
    return _Outcome(status, result=result, witness=witness, defects=defects, human="\n".join(human_lines))


def _cmd_extract_omega(args, fetch) -> _Outcome:
    n = args.n
    raw = RawLieKernel(n, parse_poly(fetch(args.a), pair_space(n)))
    try:
        data = extract_omega(raw)
    except LieKernelError as err:
        return _Outcome("fail", witness={"message": str(err)}, human=str(err))
    result = {
        "omega": _matrix_rows(data.omega),
        "rank": data.rank,
        "kernel_basis": _vectors(data.kernel_basis),
    }
    human = f"omega = {data.omega!r}\nrank = {data.rank}"
    if data.kernel_basis:
        human += f"\nkernel basis: {result['kernel_basis']}"
    return _Outcome("ok", result=result, human=human)


def _hclass_payload(h) -> dict:
    payload = {"tag": h.tag}
    if h.mu_squared is not None:
        payload["mu_squared"] = str(h.mu_squared)
    if h.scale is not None:
        payload["scale"] = str(h.scale)
    if h.witness_index is not None:
        payload["witness_index"] = h.witness_index
        payload["expected"] = str(h.expected)
        payload["found"] = str(h.found)
    return payload


def _cmd_classify_h(args, fetch) -> _Outcome:
    series = parse_series(args.series)
    h = classify_h(series)
    payload = _hclass_payload(h)
    status = "fail" if h.tag == "neither" else "ok"
    if h.tag == "sinh":
        human = f"sinh: mu^2 = {h.mu_squared}, scale (c*mu) = {h.scale}"
    elif h.tag == "linear":
        human = f"linear: scale = {h.scale}"
    elif h.tag == "zero":
        human = "zero"
    else:
        human = (
            f"neither: index {h.witness_index} expected {h.expected}, "
            f"found {h.found}"
        )
    return _Outcome(status, result=payload, human=human)


def _cmd_theorem2(args, fetch) -> _Outcome:
    n = args.n
    raw = RawLieKernel(n, parse_poly(fetch(args.a), pair_space(n)))
    report = theorem2_pipeline(
        raw,
        fit_degree=args.fit_degree,
        center_degree=args.center_degree,
        verify_degree=args.verify_degree,
    )
    axioms, defects = _axiom_payload(raw, report.axioms)
    result = {"status": report.status, "axioms": axioms}
    if report.omega is not None:
        result["omega"] = _matrix_rows(report.omega)
        result["rank"] = report.rank
    if report.kernel_basis:
        result["kernel_basis"] = _vectors(report.kernel_basis)
    if report.chi is not None:
        result["chi"] = str(report.chi)
    if report.h_series is not None:
        result["h_series"] = [str(c) for c in report.h_series]
    if report.h_class is not None:
        result["h_class"] = _hclass_payload(report.h_class)
    if report.center_generators:
        result["center_generators"] = [
            {"generator": str(g.generator), "verified": g.verified}
            for g in report.center_generators
        ]
    if report.isomorphism_note:
        result["isomorphism_note"] = report.isomorphism_note
    witness = None
    if report.residual_witness is not None:
        exps, coeff = report.residual_witness
        witness = {"residual": str(Poly.monomial(pair_space(n), exps, coeff))}
    if report.failure:
        witness = dict(witness or {}, message=report.failure)
    status = "ok" if report.passed else "fail"
    human_lines = [f"status: {report.status}"]
    if "chi" in result:
        human_lines.append(f"chi = {result['chi']}")
    if "h_class" in result:
        human_lines.append(f"h: {result['h_class']}")
    if "center_generators" in result:
        human_lines.append(
            "center generators: "
            + ", ".join(g["generator"] for g in result["center_generators"])
        )
    if report.isomorphism_note:
        human_lines.append(report.isomorphism_note)
    if witness:
        human_lines.append(f"witness: {witness}")
    return _Outcome(status, result=result, witness=witness, defects=defects, human="\n".join(human_lines))


def _cmd_coeffs(args, fetch) -> _Outcome:
    raw = RawLieKernel(args.n, parse_poly(fetch(args.a), pair_space(args.n)))
    table = bidiff_coefficients(raw, args.rmax, args.smax)
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


_HANDLERS = {
    "star": _cmd_star,
    "bracket": _cmd_bracket,
    "poisson": _cmd_poisson,
    "limit": _cmd_limit,
    "u-map": _cmd_u_map,
    "oracle": _cmd_oracle,
    "check-cocycle": _cmd_check_cocycle,
    "factorize": _cmd_factorize,
    "center": _cmd_center,
    "check-lie": _cmd_check_lie,
    "extract-omega": _cmd_extract_omega,
    "classify-h": _cmd_classify_h,
    "theorem2": _cmd_theorem2,
    "coeffs": _cmd_coeffs,
}


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError so that `run` can report usage errors as JSON."""

    def error(self, message):
        raise _UsageError(self, message)


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
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
        help="read '-' expression arguments from standard input, one per line",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    size = _at_least(0)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=_at_least(1), default=1, help="configuration dimension")
        return p

    def add_kernel_options(p):
        p.add_argument(
            "--kernel",
            choices=["moyal", "standard"],
            default="moyal",
            help="built-in kernel (chi = 0 resp. mu*sum u_i u_{n+i}; M = mu*J)",
        )
        p.add_argument("--chi", help="override chi (expression in u1..u2n)")
        p.add_argument(
            "--m",
            help="override M: semicolon-separated rows of comma-separated "
            "constant expressions",
        )

    p = add("star", "star product of two phase-space polynomials")
    add_kernel_options(p)
    p.add_argument("f")
    p.add_argument("g")

    p = add("bracket", "bracket (star commutator over 2*mu)")
    add_kernel_options(p)
    p.add_argument("f")
    p.add_argument("g")

    p = add("poisson", "canonical Poisson bracket")
    p.add_argument("f")
    p.add_argument("g")

    p = add("limit", "classical limit: substitute mu = 0")
    p.add_argument("f")

    p = add("u-map", "apply the ordering-change map exp(chi(-i d/dz))")
    p.add_argument("--chi", required=True, help="chi (expression in u1..u2n)")
    p.add_argument("f")

    p = add("oracle", "operator route: quantize, multiply, map back")
    p.add_argument("f")
    p.add_argument("g", nargs="?")

    p = add("check-cocycle", "check a kernel exponent for associativity")
    p.add_argument("--b", required=True, help="exponent b over u, v slots")

    p = add("factorize", "factor an associative exponent into (chi, M, Darboux data)")
    p.add_argument("--b", required=True)

    p = add("center", "monomial basis of the center, up to a degree bound")
    p.add_argument("--b", required=True)
    p.add_argument("--max-degree", type=size, default=2)

    p = add("check-lie", "check bracket-kernel axioms (antisymmetry, Jacobi, constants)")
    p.add_argument("--a", required=True, help="kernel A over u, v slots")
    p.add_argument("--truncation-degree", type=size, default=None)

    p = add("extract-omega", "read the antisymmetric matrix omega off a bracket kernel")
    p.add_argument("--a", required=True)

    p = add("classify-h", "classify an odd coefficient list a1, a3, ...")
    p.add_argument("--series", required=True, help="comma-separated constants")

    p = add("theorem2", "full bracket-kernel classification pipeline")
    p.add_argument("--a", required=True)
    p.add_argument("--fit-degree", type=size, default=6)
    p.add_argument("--center-degree", type=size, default=2)
    p.add_argument("--verify-degree", type=size, default=None)

    p = add("coeffs", "bidifferential coefficient table (n = 1)")
    p.add_argument("--a", required=True)
    p.add_argument("--rmax", type=size, default=4)
    p.add_argument("--smax", type=size, default=4)

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


def _degree_guard_from_env() -> None:
    guard = os.environ.get("MOYAL_MAX_DEGREE")
    if guard:
        try:
            set_degree_guard(int(guard))
        except ValueError:
            raise ValueError("MOYAL_MAX_DEGREE must be a positive integer") from None


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
            _degree_guard_from_env()
            outcome = _HANDLERS[command](args, fetch)
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
