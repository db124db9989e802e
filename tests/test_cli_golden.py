"""Golden CLI output: every subcommand's --json document, byte for byte.

golden_cli.json was recorded with the Fraction-based scalars (kept as
oracle_scalars.py).  The inputs cover Gaussian, rational and rational-function
coefficients and exit codes 0, 1 and 2.  The last four `star` cases were
recorded with the tree-walking parser that preceded the postfix one; they pin
which error wins when an expression has more than one.

golden_cli_human.json holds stdout, stderr and the exit code of the same
argv without --json, of a zero --chi and of a kernel error that must win over
an operand error, of each subcommand missing an operand (argparse's usage
text at 80 columns) and of two --stdin runs.  It was recorded before the
expression arguments were read through one table.
"""

import io
import json
from pathlib import Path

import pytest

from moyal.cli import run

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_cli.json").read_text())
HUMAN = json.loads((HERE / "golden_cli_human.json").read_text())


def test_golden_covers_every_subcommand():
    from moyal.cli import _HANDLERS

    assert {case["argv"][1] for case in GOLDEN} == set(_HANDLERS)


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{k}-{c['argv'][1]}" for k, c in enumerate(GOLDEN)])
def test_json_output_is_byte_identical(case, capsys):
    code = run(case["argv"])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


def _command(argv):
    return next(word for word in argv if not word.startswith("-"))


@pytest.mark.parametrize("case", HUMAN, ids=[f"{k}-{_command(c['argv'])}" for k, c in enumerate(HUMAN)])
def test_human_output_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
    monkeypatch.delenv("MOYAL_MAX_DEGREE", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(case.get("stdin", "")))
    try:
        code = run(case["argv"])
    except SystemExit as exc:  # usage errors exit from argparse
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
