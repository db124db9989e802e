"""Golden CLI output: every subcommand's --json document, byte for byte.

golden_cli.json was recorded with the Fraction-based scalars (kept as
oracle_scalars.py).  The inputs cover Gaussian, rational and rational-function
coefficients and exit codes 0, 1 and 2.  The last four `star` cases were
recorded with the tree-walking parser that preceded the postfix one; they pin
which error wins when an expression has more than one.
"""

import json
from pathlib import Path

import pytest

from moyal.cli import run

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


def test_golden_covers_every_subcommand():
    from moyal.cli import _HANDLERS

    assert {case["argv"][1] for case in GOLDEN} == set(_HANDLERS)


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{k}-{c['argv'][1]}" for k, c in enumerate(GOLDEN)])
def test_json_output_is_byte_identical(case, capsys):
    code = run(case["argv"])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
