"""CLI contract fuzzing: every `--json` invocation prints one five-key JSON
document and exits 0, 1 or 2, whatever the subcommand, options, expressions,
standard input and MOYAL_MAX_DEGREE.

Runs in-process through `cli.run`, each invocation in a copied context so
that a degree guard set from the environment does not outlive it.  Help
(`-h`) is left out: it is an explicit request for human-readable text.
"""

import contextlib
import contextvars
import io
import json
import os
from unittest import mock

from hypothesis import given, settings, strategies as st

from moyal.cli import run

KEYS = {"command", "status", "result", "witness", "defects"}
EXIT_OF_STATUS = {"ok": 0, "fail": 1, "error": 2}

NAMES = ["q1", "p1", "q2", "p2", "u1", "u2", "u3", "u4", "v1", "v2", "v3", "w1", "x"]


def _compound(inner):
    # Operands are bare or parenthesised, so that precedence decides the shape.
    operand = st.one_of(inner, inner.map("({})".format))
    return st.one_of(
        operand.map("-{}".format),
        st.builds("{}^{}".format, operand, st.integers(0, 3)),
        st.builds("{}{}{}".format, operand, st.sampled_from([" + ", " - ", "*", "/"]), operand),
    )


# Well-formed expressions.  Exponents stay small so that every generated
# command finishes quickly.
LEAVES = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["i", "mu"]),
    st.sampled_from(NAMES),
)
FORMED = st.recursive(LEAVES, _compound, max_leaves=6)
TOKENS = NAMES + ["mu", "i", "0", "1", "2", "+", "-", "*", "/", "^", "(", ")", " ", ",", ";", "$"]
SOUP = st.lists(st.sampled_from(TOKENS), max_size=7).map("".join)
EXPRESSIONS = st.one_of(FORMED, SOUP)
SMALL_INTS = st.sampled_from(["-1", "0", "1", "2", "3", "x", ""])
MATRICES = st.one_of(
    st.sampled_from(["0, mu; -mu, 0", "0, 1; -1, 0", "0, mu; mu, 0", "1", "0, mu", "a, b; c, d"]),
    st.lists(st.lists(EXPRESSIONS, min_size=1, max_size=4).map(", ".join), max_size=4).map("; ".join),
)

OPTIONS = {
    "--n": st.sampled_from(["-1", "0", "1", "2", "x"]),
    "--kernel": st.sampled_from(["moyal", "standard", "weyl"]),
    "--chi": EXPRESSIONS,
    "--m": MATRICES,
    "--b": EXPRESSIONS,
    "--a": EXPRESSIONS,
    "--series": st.lists(EXPRESSIONS, max_size=4).map(", ".join),
    "--max-degree": SMALL_INTS,
    "--truncation-degree": SMALL_INTS,
    "--fit-degree": SMALL_INTS,
    "--center-degree": SMALL_INTS,
    "--verify-degree": SMALL_INTS,
    "--rmax": SMALL_INTS,
    "--smax": SMALL_INTS,
}
KERNEL = ["--kernel", "--chi", "--m"]
COMMANDS = {
    "star": (KERNEL, 2),
    "bracket": (KERNEL, 2),
    "poisson": ([], 2),
    "limit": ([], 1),
    "u-map": (["--chi"], 1),
    "oracle": ([], 2),
    "check-cocycle": (["--b"], 0),
    "factorize": (["--b"], 0),
    "center": (["--b", "--max-degree"], 0),
    "check-lie": (["--a", "--truncation-degree"], 0),
    "extract-omega": (["--a"], 0),
    "classify-h": (["--series"], 0),
    "theorem2": (["--a", "--fit-degree", "--center-degree", "--verify-degree"], 0),
    "coeffs": (["--a", "--rmax", "--smax"], 0),
}


@st.composite
def invocations(draw):
    """(argv, stdin text, MOYAL_MAX_DEGREE or None); argv always holds --json."""
    command = draw(st.sampled_from([*COMMANDS, "frobnicate", None]))
    own, positionals = COMMANDS.get(command, ([], 0))
    words = []
    for option in ["--n", *own, *draw(st.lists(st.sampled_from(list(OPTIONS)), max_size=1))]:
        if draw(st.integers(0, 4)):
            words += [option, draw(OPTIONS[option])]
    use_stdin = draw(st.booleans())
    count = draw(st.sampled_from([positionals] * 4 + [0, 1, 2, 3]))
    for _ in range(count):
        words.append("-" if use_stdin and draw(st.booleans()) else draw(EXPRESSIONS))
    head = ["--json"] + (["--stdin"] if use_stdin else [])
    argv = head + ([command] if command else []) + words
    if draw(st.integers(0, 9)) == 0:
        argv.remove("--json")
        argv.insert(draw(st.integers(0, len(argv))), "--json")
    stdin = "\n".join(draw(st.lists(EXPRESSIONS, max_size=3)))
    guard = draw(st.sampled_from([None] * 6 + ["8", "0", "-3", "abc"]))
    return argv, stdin, guard


@settings(max_examples=400, deadline=None, derandomize=True)
@given(invocations())
def test_json_contract_holds_for_every_invocation(invocation):
    argv, stdin, guard = invocation
    env = {} if guard is None else {"MOYAL_MAX_DEGREE": guard}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, env))
        if guard is None:
            os.environ.pop("MOYAL_MAX_DEGREE", None)
        stack.enter_context(mock.patch("sys.stdin", io.StringIO(stdin)))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = contextvars.copy_context().run(run, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    doc = json.loads(out.getvalue())  # exactly one document: extra data fails here
    assert set(doc) == KEYS
    assert EXIT_OF_STATUS[doc["status"]] == code
