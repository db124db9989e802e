"""The benchmark's contract with the library, checked in the test suite.

`bench/` imports the library, builds seeded operations and judges every
output with its own check.  A library change that breaks one of those
imports, an operation or a check then fails here, not only in a benchmark
run.  Nothing under `bench/` is changed by these tests.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

SEED = 41
# Every PRODUCTS_STRIDE-th op of the products workload; the others repeat its kinds.
PRODUCTS_STRIDE = 50


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def seeded_ops(workload):
    if workload == "cli":
        return workloads.build_cli(SEED, in_process=True)
    ops = workloads.BUILDERS[workload](SEED)
    return ops[::PRODUCTS_STRIDE] if workload == "products" else ops


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_one_pass_completes_and_passes_its_checks(workload):
    ops = seeded_ops(workload)
    assert ops
    for op in ops:
        result = op.run()
        assert op.check(result) == [], op.kind


def test_layer_targets_resolve_except_the_stale_one():
    """A renamed library function would silently empty its per-layer metric.

    `Poly.substitute` is gone from the library; its metric is stale until
    the benchmark drops it.
    """
    unresolved = {
        spec
        for _, specs in layers.FUNCTIONS.values()
        for spec in specs
        if layers._code_key(spec) is None
    }
    assert unresolved == {"moyal.poly:Poly.substitute"}
