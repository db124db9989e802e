"""Checks on workload outputs.

Every check compares an output with a planted value, with a second route
through different code, or with a property the result must have.  None of
them compares with a stored copy of earlier output.  Each returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import factorial, perm

from moyal import scalars
from moyal.linalg import Matrix
from moyal.poly import Poly

CLI_KEYS = frozenset({"command", "status", "result", "witness", "defects"})
CLI_EXIT = {"ok": 0, "fail": 1, "error": 2}


def equal(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got}, expected {want}"]


# -- products ----------------------------------------------------------------


def associativity(left: Poly, right: Poly) -> list[str]:
    """(f*g)*h and f*(g*h) must agree exactly."""
    return equal("associativity", left, right)


def bracket_axioms(jacobi: Poly, fg: Poly, gf: Poly, with_constant: Poly) -> list[str]:
    """Jacobi sum zero, {f,g} = -{g,f}, and {f, constant} = 0."""
    problems = []
    if not jacobi.is_zero:
        problems.append(f"Jacobi sum is {jacobi}, expected 0")
    if fg != -gf:
        problems.append(f"antisymmetry: {{f,g}} = {fg} but {{g,f}} = {gf}")
    if not with_constant.is_zero:
        problems.append(f"bracket with a constant is {with_constant}, expected 0")
    return problems


# -- dense_products ----------------------------------------------------------


def routes_agree(via_star: Poly, via_weyl: Poly) -> list[str]:
    """u_map(f *_chi g) must equal the Weyl-operator product of the mapped factors."""
    return equal("star route vs Weyl operator route", via_star, via_weyl)


# -- classify ----------------------------------------------------------------

STATUS_OF_TAG = {"sinh": "moyal-class", "linear": "poisson-class"}


@dataclass(frozen=True)
class PlantedKernel:
    """What a theorem2 input was built from, and so what the report must say.

    kind is "kernel" (nondegenerate normal form), "degenerate" (omega with a
    kernel; `generators` holds the monomials in the coordinates dual to it)
    or "nonkernel" (not a Lie kernel at all).
    """

    kind: str
    n: int
    chi: Poly | None = None
    omega: Matrix | None = None
    tag: str | None = None
    mu_squared: scalars.Coefficient | None = None
    generators: frozenset = field(default_factory=frozenset)


def theorem2_report(planted: PlantedKernel, report) -> list[str]:
    if planted.kind == "nonkernel":
        if report.passed:
            return [f"planted non-kernel passed as {report.status}"]
        return []
    if planted.kind == "degenerate":
        problems = equal("status", report.status, "degenerate")
        got = [g.generator for g in report.center_generators]
        if len(got) != len(planted.generators) or set(got) != planted.generators:
            problems.append(
                f"centre generators {[str(g) for g in got]}, expected "
                f"{sorted(str(g) for g in planted.generators)}"
            )
        unverified = [str(g.generator) for g in report.center_generators if not g.verified]
        if unverified:
            problems.append(f"unverified centre generators {unverified}")
        return problems
    problems = equal("status", report.status, STATUS_OF_TAG[planted.tag])
    if problems:
        return problems + ([f"failure: {report.failure}"] if report.failure else [])
    problems += equal("chi", report.chi, planted.chi)
    problems += equal("omega", report.omega, planted.omega)
    problems += equal("class tag", report.h_class.tag, planted.tag)
    if planted.tag == "sinh":
        problems += equal("mu^2", report.h_class.mu_squared, planted.mu_squared)
    return problems


def factorization(chi: Poly, m: Matrix, b: Poly, fact) -> list[str]:
    """factorize must return the planted (chi, M) and rebuild b exactly."""
    return (
        equal("factorized chi", fact.chi, chi)
        + equal("factorized M", fact.m, m)
        + equal("rebuild", fact.rebuild(), b)
    )


def _value_at(b: Poly, point: list[int]) -> scalars.Coefficient:
    """b at an integer point, summed term by term."""
    total = scalars.ZERO
    for exps, coeff in b.terms.items():
        weight = 1
        for x, e in zip(point, exps):
            weight *= x**e
        total = total + coeff.scale_int(weight)
    return total


def noncocycle(b: Poly, n: int, violation) -> list[str]:
    """A planted non-cocycle must be rejected with a witness that holds up.

    The witness point is checked here by evaluating b directly: the two sides
    of b(u,v) + b(u+v,w) = b(v,w) + b(u,v+w) must differ there.
    """
    if violation is None:
        return ["planted non-cocycle passed cocycle_check"]
    if violation.monomial is None or violation.point is None:
        return [f"violation without a witness point: {violation}"]
    width = 2 * n
    pt = list(violation.point)
    u, v, w = pt[:width], pt[width : 2 * width], pt[2 * width :]
    uv = [a + c for a, c in zip(u, v)]
    vw = [a + c for a, c in zip(v, w)]
    lhs = _value_at(b, u + v) + _value_at(b, uv + w)
    rhs = _value_at(b, v + w) + _value_at(b, u + vw)
    problems = []
    if lhs == rhs:
        problems.append(f"witness point {pt} does not violate the cocycle identity")
    problems += equal("witness lhs", violation.lhs, lhs)
    problems += equal("witness rhs", violation.rhs, rhs)
    return problems


# -- independent reference values for the cli workload -------------------------


def poisson_terms(f: Poly, g: Poly, n: int) -> dict:
    """sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i, computed on raw term dicts."""
    out: dict[tuple[int, ...], scalars.Coefficient] = {}
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            for i in range(n):
                for a, b, sign in ((i, n + i, 1), (n + i, i, -1)):
                    if not ef[a] or not eg[b]:
                        continue
                    exps = tuple(
                        x + y - (k == a) - (k == b)
                        for k, (x, y) in enumerate(zip(ef, eg))
                    )
                    c = (cf * cg).scale_int(sign * ef[a] * eg[b])
                    out[exps] = out[exps] + c if exps in out else c
    return {e: c for e, c in out.items() if c}


def u_map_monomial(a: scalars.Coefficient, k: int, m: int) -> dict:
    """exp(chi(-i d/dz)) q^k p^m for chi = a*u1*u2, i.e. exp(-a d/dq d/dp)."""
    out = {}
    minus_a = -a
    for j in range(min(k, m) + 1):
        c = (minus_a**j).scale_int(perm(k, j) * perm(m, j)) / scalars.Coefficient.from_int(
            factorial(j)
        )
        out[(k - j, m - j)] = c
    return out


# -- cli ---------------------------------------------------------------------


def cli_failure(code: int, stdout: str, stderr: str) -> str | None:
    """Why a command broke the CLI contract (traceback, bad exit, no JSON), if it did."""
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return f"traceback, exit {code}: {last}"
    if code not in (0, 1, 2):
        return f"exit code {code} is outside {{0, 1, 2}}"
    try:
        json.loads(stdout)
    except ValueError:
        return f"exit {code} without a JSON document"
    return None


@dataclass(frozen=True)
class CliExpectation:
    command: str
    code: int
    verify: object = None  # callable(doc) -> list[str], or None


def cli_document(expect: CliExpectation, result: tuple[int, str]) -> list[str]:
    """The five fixed keys, the status/exit-code contract, and the result."""
    code, stdout = result
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["output is not JSON"]
    if not isinstance(doc, dict) or set(doc) != CLI_KEYS:
        keys = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        return [f"JSON keys {keys}, expected {sorted(CLI_KEYS)}"]
    problems = equal("command", doc["command"], expect.command)
    problems += equal("exit code", code, expect.code)
    problems += equal("exit code of the status", CLI_EXIT.get(doc["status"]), code)
    if problems:
        return problems
    if expect.verify is not None:
        try:
            problems += expect.verify(doc)
        except (KeyError, TypeError, ValueError, IndexError) as err:
            problems.append(f"malformed result {doc['result']!r}: {err!r}")
    return problems
