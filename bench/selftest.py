"""Self-test of the benchmark's checks; runs in a few seconds.

    python3 bench/selftest.py

For every workload, the checker must accept a real output and reject the
same output with one planted error: an altered coefficient in a product, a
wrong class tag, a wrong centre generator, CLI JSON with a missing key.
Exits 1 if any checker lets a planted error through.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from moyal import scalars  # noqa: E402
from moyal.lie import CenterGenerator  # noqa: E402
from moyal.poly import Poly, phase_space  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def altered(p: Poly) -> Poly:
    """p with the coefficient of its leading term changed."""
    exps, coeff = p.sorted_terms()[0]
    terms = dict(p.terms)
    terms[exps] = coeff + scalars.ONE if coeff + scalars.ONE else coeff.scale_int(2)
    return Poly(p.space, terms)


class SelfTest:
    def __init__(self):
        self.failures = []

    def expect(self, name: str, problems: list, wrong: bool) -> None:
        ok = bool(problems) == wrong
        if not ok:
            verdict = "accepted a planted error" if wrong else f"rejected a right answer: {problems}"
            self.failures.append(f"{name}: {verdict}")
        print(f"{'ok  ' if ok else 'FAIL'} {name}")

    def products(self):
        ops = workloads.build_products(1)
        assoc = next(op for op in ops if op.kind == "assoc" and op.run()[0].total_degree() >= 3)
        left, right = assoc.run()
        self.expect("products: associativity holds", assoc.check((left, right)), False)
        self.expect("products: altered coefficient", assoc.check((altered(left), right)), True)
        jac = next(op for op in ops if op.kind == "jacobi" and not op.run()[1].is_zero)
        jacobi, fg, gf, const = jac.run()
        self.expect("products: bracket axioms hold", jac.check((jacobi, fg, gf, const)), False)
        self.expect("products: altered bracket", jac.check((jacobi, altered(fg), gf, const)), True)
        self.expect("products: nonzero Jacobi sum", jac.check((fg, fg, gf, const)), True)

    def dense_products(self):
        op = workloads.build_dense_products(1)[1]
        via_star, via_weyl = op.run()
        self.expect("dense_products: routes agree", op.check((via_star, via_weyl)), False)
        self.expect("dense_products: altered coefficient", op.check((altered(via_star), via_weyl)), True)

    def classify(self):
        rng = random.Random(7)
        for tag in ("sinh", "linear"):
            raw, planted = workloads.planted_lie_kernel(rng, "kernel", 1, 6, tag, ((2, 0), (2, 1)))
            report = workloads.theorem2_pipeline(raw, fit_degree=6)
            self.expect(f"classify: {tag} kernel recovered", checks.theorem2_report(planted, report), False)
            other = "linear" if tag == "sinh" else "sinh"
            wrong = dataclasses.replace(report, h_class=dataclasses.replace(report.h_class, tag=other))
            self.expect(f"classify: wrong class tag ({other})", checks.theorem2_report(planted, wrong), True)
            wrong = dataclasses.replace(report, chi=altered(report.chi))
            self.expect(f"classify: altered chi ({tag})", checks.theorem2_report(planted, wrong), True)
        raw, planted = workloads.planted_lie_kernel(rng, "degenerate", 2, 6, "linear", ((2, 0, 0, 0),))
        report = workloads.theorem2_pipeline(
            raw, fit_degree=6, center_degree=workloads.CENTER_DEGREE, verify_degree=2
        )
        self.expect("classify: centre generators", checks.theorem2_report(planted, report), False)
        gens = list(report.center_generators)
        stray = next(
            Poly.monomial(phase_space(2), e)
            for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
            if Poly.monomial(phase_space(2), e) not in planted.generators
        )
        gens[1] = CenterGenerator(generator=stray, verified=True)
        wrong = dataclasses.replace(report, center_generators=gens)
        self.expect("classify: wrong centre generator", checks.theorem2_report(planted, wrong), True)
        raw, planted = workloads.planted_lie_kernel(rng, "nonkernel", 1, 6, "linear", ((2, 0), (2, 1)))
        report = workloads.theorem2_pipeline(raw, fit_degree=6)
        self.expect("classify: non-kernel rejected", checks.theorem2_report(planted, report), False)
        wrong = dataclasses.replace(report, status="poisson-class")
        self.expect("classify: non-kernel passing", checks.theorem2_report(planted, wrong), True)
        ops = workloads.build_classify(1)
        fact_op = next(op for op in ops if op.kind == "factorize")
        fact = fact_op.run()
        self.expect("classify: factorize round trip", fact_op.check(fact), False)
        wrong = dataclasses.replace(fact, chi=altered(fact.chi))
        self.expect("classify: altered factorized chi", fact_op.check(wrong), True)
        cocycle_op = next(op for op in ops if op.kind == "noncocycle")
        violation = cocycle_op.run()
        self.expect("classify: non-cocycle witness", cocycle_op.check(violation), False)
        self.expect("classify: non-cocycle passing", cocycle_op.check(None), True)
        wrong = dataclasses.replace(violation, lhs=violation.rhs)
        self.expect("classify: witness sides swapped", cocycle_op.check(wrong), True)

    def cli(self):
        ops = workloads.build_cli(1, in_process=True)
        op = ops[0]  # star q1 p1
        code, stdout = op.run()
        self.expect("cli: star q1 p1 = q1*p1 + mu", op.check((code, stdout)), False)
        doc = json.loads(stdout)
        missing = {k: v for k, v in doc.items() if k != "defects"}
        self.expect("cli: missing key", op.check((code, json.dumps(missing))), True)
        wrong = dict(doc, result={"poly": "q1*p1 - mu"})
        self.expect("cli: wrong product", op.check((code, json.dumps(wrong))), True)
        self.expect("cli: wrong exit code", op.check((1, stdout)), True)
        traceback = "Traceback (most recent call last):\nRecursionError: maximum recursion depth"
        reason = checks.cli_failure(1, "", traceback)
        self.expect("cli: traceback is a failure", [reason] if reason else [], True)


def main() -> int:
    test = SelfTest()
    for part in (test.products, test.dense_products, test.classify, test.cli):
        part()
    if test.failures:
        print("\n".join(test.failures), file=sys.stderr)
        return 1
    print("all checks reject their planted errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
