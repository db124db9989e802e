"""End-to-end CLI behavior: outputs, exit codes, JSON determinism, stdin."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from moyal.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputeCommands:
    def test_star_fixture(self, capsys):
        code, out, _ = invoke(capsys, "star", "--n", "1", "--kernel", "moyal", "q1", "p1")
        assert code == 0
        assert out.strip() == "q1*p1 + mu"

    def test_star_standard_kernel(self, capsys):
        # b = coboundary(mu*u1*u2) + mu*(v1*u2 - v2*u1) collapses to -2*mu*u1*v2.
        code, out, _ = invoke(capsys, "star", "--kernel", "standard", "q1", "p1")
        assert code == 0
        assert out.strip() == "q1*p1 + 2*mu"

    def test_star_custom_kernel(self, capsys):
        code, out, _ = invoke(
            capsys, "star", "--chi", "u1^2", "--m", "0, mu; -mu, 0", "q1", "q1"
        )
        assert code == 0
        # chi = eta^2 contributes -2 u1 v1 -> second derivative term.
        assert out.strip() == "q1^2 + 2"

    def test_bracket_and_poisson(self, capsys):
        code, out, _ = invoke(capsys, "bracket", "q1^3", "p1^3")
        assert code == 0
        assert out.strip() == "9*q1^2*p1^2 + 6*mu^2"
        code, out, _ = invoke(capsys, "poisson", "q1^3", "p1^3")
        assert code == 0
        assert out.strip() == "9*q1^2*p1^2"

    def test_limit_pass_and_pole(self, capsys):
        code, out, _ = invoke(capsys, "limit", "9*q1^2*p1^2 + 6*mu^2")
        assert code == 0
        assert out.strip() == "9*q1^2*p1^2"
        code, out, _ = invoke(capsys, "limit", "(1/mu)*q1")
        assert code == 1
        assert "pole" in out

    def test_u_map(self, capsys):
        code, out, _ = invoke(capsys, "u-map", "--chi", "mu*u1*u2", "q1*p1")
        assert code == 0
        assert out.strip() == "q1*p1 - mu"

    def test_oracle_matches_star(self, capsys):
        code, out, _ = invoke(capsys, "--json", "oracle", "q1^2", "p1^2")
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["symbol"] == "q1^2*p1^2 + 4*mu*q1*p1 + 2*mu^2"
        code, out, _ = invoke(capsys, "star", "q1^2", "p1^2")
        assert out.strip() == doc["result"]["symbol"]

    def test_oracle_quantize_single(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "q1*p1")
        assert code == 0
        assert out.strip() == "qh1*ph1 - mu"


class TestAnalysisCommands:
    def test_check_cocycle_violation_exit_one(self, capsys):
        code, out, _ = invoke(capsys, "check-cocycle", "--n", "1", "--b", "u1^2*v1^2")
        assert code == 1
        assert "violation" in out

    def test_check_cocycle_pass(self, capsys):
        code, out, _ = invoke(
            capsys, "check-cocycle", "--b", "mu*(v1*u2 - v2*u1) - 2*u1*v1"
        )
        assert code == 0
        assert out.strip() == "pass"

    def test_factorize(self, capsys):
        code, out, _ = invoke(
            capsys, "--json", "factorize", "--b", "mu*(v1*u2 - v2*u1) - 2*u1*v1"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["chi"] == "u1^2"
        assert doc["result"]["rank"] == 2
        assert doc["result"]["pairings"] == ["mu"]
        assert doc["result"]["nondegenerate"] is True

    def test_center(self, capsys):
        code, out, _ = invoke(
            capsys, "--json", "center", "--n", "2", "--b", "mu*(v1*u2 - v2*u1)",
            "--max-degree", "1",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["generators"] == ["1", "p1", "p2"]

    def test_check_lie(self, capsys):
        code, out, _ = invoke(capsys, "check-lie", "--a", "v1*u2 - v2*u1")
        assert code == 0
        code, out, _ = invoke(capsys, "check-lie", "--a", "(v1*u2 - v2*u1)^2")
        assert code == 1

    def test_check_lie_truncation_defect(self, capsys):
        code, out, _ = invoke(
            capsys,
            "--json",
            "check-lie",
            "--a",
            "(v1*u2 - v2*u1) + mu^2*(v1*u2 - v2*u1)^3/6",
            "--truncation-degree",
            "6",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["jacobi"] == "truncation-defect"
        assert list(doc["defects"]["mu_orders"]) == ["4"]

    def test_extract_omega(self, capsys):
        code, out, _ = invoke(capsys, "--json", "extract-omega", "--a", "v1*u2 - v2*u1")
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["omega"] == [["0", "-1"], ["1", "0"]]

    def test_classify_h(self, capsys):
        code, out, _ = invoke(capsys, "classify-h", "--series", "1,1/6,1/120")
        assert code == 0
        assert "sinh" in out
        code, out, _ = invoke(capsys, "classify-h", "--series", "1,1,0")
        assert code == 1
        assert "neither" in out

    def test_theorem2(self, capsys):
        code, out, _ = invoke(
            capsys, "--json", "theorem2", "--a", "v1*u2 - v2*u1", "--fit-degree", "4"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["status"] == "poisson-class"
        assert doc["result"]["h_class"]["tag"] == "linear"

    def test_coeffs(self, capsys):
        code, out, _ = invoke(
            capsys, "--json", "coeffs", "--a", "v1*u2 - v2*u1", "--rmax", "1",
            "--smax", "1",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["entries"] == {"1,1,1,0": "1", "1,0,1,1": "-1"}


class TestProtocol:
    def test_json_is_byte_identical(self, capsys):
        args = ["--json", "theorem2", "--a", "v1*u2 - v2*u1", "--fit-degree", "4"]
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_parse_error_exit_two(self, capsys):
        code, out, err = invoke(capsys, "star", "q1 +", "p1")
        assert code == 2
        assert "column" in err

    def test_unknown_variable_exit_two(self, capsys):
        code, _, err = invoke(capsys, "star", "--n", "1", "q2", "p1")
        assert code == 2

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["star", "q1"])  # missing second operand
        assert err.value.code == 2

    def test_stdin_dash_arguments(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("q1\np1\n"))
        code, out, _ = invoke(capsys, "--stdin", "star", "-", "-")
        assert code == 0
        assert out.strip() == "q1*p1 + mu"

    def test_degree_guard_env(self, capsys, monkeypatch):
        from moyal.poly import get_degree_guard, set_degree_guard

        saved = get_degree_guard()
        monkeypatch.setenv("MOYAL_MAX_DEGREE", "4")
        try:
            code, _, err = invoke(capsys, "star", "q1^4", "p1^4")
            assert code == 2
            assert "degree" in err.lower()
        finally:
            set_degree_guard(saved)

    def test_json_error_document(self, capsys):
        code, out, _ = invoke(capsys, "--json", "limit", "(1/mu)*q1")
        doc = json.loads(out)
        assert code == 1
        assert doc["status"] == "fail"
        assert doc["witness"]["kind"] == "pole-at-mu-zero"


JSON_KEYS = {"command", "status", "result", "witness", "defects"}


def test_json_usage_error_is_a_json_document(capsys):
    # A leading minus makes argparse read the expression as an option.
    code, out, _ = invoke(capsys, "--json", "star", "-q1^2", "p1")
    doc = json.loads(out)
    assert code == 2
    assert set(doc) == JSON_KEYS
    assert doc["command"] == "star"
    assert doc["status"] == "error"
    assert "required" in doc["witness"]["message"]
    code, out, _ = invoke(capsys, "--json", "no-such-command")
    doc = json.loads(out)
    assert code == 2 and doc["command"] is None and doc["status"] == "error"


def test_json_deep_nesting_exit_two(capsys):
    nested = "(" * 1200 + "q1" + ")" * 1200
    code, out, _ = invoke(capsys, "--json", "star", nested, "p1")
    doc = json.loads(out)
    assert code == 2
    assert set(doc) == JSON_KEYS
    assert doc["status"] == "error"
    assert "nested deeper" in doc["witness"]["message"]


@pytest.mark.parametrize(
    "guard, f, code",
    [(None, "(1+mu)^65", 2), (None, "(1+mu)^20000", 2), (None, "mu^64", 0), ("200", "mu^100", 0)],
)
def test_json_scalar_powers_respect_the_degree_guard(capsys, monkeypatch, guard, f, code):
    from moyal.poly import get_degree_guard, set_degree_guard

    saved = get_degree_guard()
    if guard is not None:
        monkeypatch.setenv("MOYAL_MAX_DEGREE", guard)
    try:
        got, out, _ = invoke(capsys, "--json", "star", f, "q1")
    finally:
        set_degree_guard(saved)
    doc = json.loads(out)
    assert got == code
    assert set(doc) == JSON_KEYS
    assert doc["status"] == ("error" if code else "ok")
    if code:
        assert "guard" in doc["witness"]["message"]


CHAIN = 1200


@pytest.mark.parametrize(
    "f, code, poly",
    [
        (" + ".join(["q1"] * CHAIN), 0, "1200*q1*p1 + 1200*mu"),
        ("*".join(["1"] * (CHAIN - 1) + ["q1"]), 0, "q1*p1 + mu"),
        ("q1" + "^1" * CHAIN, 0, "q1*p1 + mu"),
        ("(" * CHAIN + "q1" + ")" * CHAIN, 2, None),
    ],
    ids=["sum", "product", "power", "parentheses"],
)
def test_json_long_chains(capsys, f, code, poly):
    got, out, err = invoke(capsys, "--json", "star", f, "p1")
    doc = json.loads(out)
    assert got == code
    assert set(doc) == JSON_KEYS
    assert "Traceback" not in err
    if poly is not None:
        assert doc["result"] == {"poly": poly}


def test_json_coefficient_table_respects_the_degree_guard(capsys, monkeypatch):
    from moyal.poly import get_degree_guard, set_degree_guard

    saved = get_degree_guard()
    monkeypatch.setenv("MOYAL_MAX_DEGREE", "6")
    argv = ["--json", "coeffs", "--a", "v1*u2 - v2*u1", "--rmax", "4", "--smax", "3"]
    try:
        code, out, _ = invoke(capsys, *argv)
    finally:
        set_degree_guard(saved)
    doc = json.loads(out)
    assert code == 2
    assert set(doc) == JSON_KEYS
    assert doc["command"] == "coeffs" and doc["status"] == "error"
    assert "guard" in doc["witness"]["message"]


NEGATIVE_SIZES = [
    ("star", "q1", "p1", "--n", "0"),
    ("bracket", "q1", "p1", "--n", "-1"),
    ("coeffs", "--a", "v1*u2 - v2*u1", "--rmax", "-1"),
    ("coeffs", "--a", "v1*u2 - v2*u1", "--smax", "-2"),
    ("center", "--b", "mu*(v1*u2 - v2*u1)", "--max-degree", "-3"),
    ("check-lie", "--a", "v1*u2 - v2*u1", "--truncation-degree", "-9"),
    ("theorem2", "--a", "v1*u2 - v2*u1", "--fit-degree", "-1"),
    ("theorem2", "--a", "v1*u2 - v2*u1", "--center-degree", "-1"),
    ("theorem2", "--a", "v1*u2 - v2*u1", "--verify-degree", "-1"),
]


@pytest.mark.parametrize("argv", NEGATIVE_SIZES, ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_sizes_below_their_minimum_are_usage_errors(capsys, argv):
    code, out, _ = invoke(capsys, "--json", *argv)
    doc = json.loads(out)
    assert code == 2
    assert set(doc) == JSON_KEYS
    assert doc["command"] == argv[0] and doc["status"] == "error"
    assert "at least" in doc["witness"]["message"]
    with pytest.raises(SystemExit) as err:
        run(list(argv))
    assert err.value.code == 2
    assert "at least" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("coeffs", "--a", "v1*u2 - v2*u1", "--rmax", "0", "--smax", "0"),
        ("center", "--b", "mu*(v1*u2 - v2*u1)", "--max-degree", "0"),
        ("check-lie", "--a", "v1*u2 - v2*u1", "--truncation-degree", "0"),
        ("theorem2", "--a", "v1*u2 - v2*u1", "--fit-degree", "0", "--verify-degree", "0"),
    ],
    ids=lambda argv: argv[0],
)
def test_zero_sizes_are_accepted(capsys, argv):
    code, out, _ = invoke(capsys, "--json", *argv)
    assert code in (0, 1)
    assert json.loads(out)["status"] in ("ok", "fail")


def test_closed_pipe_exits_two_without_a_traceback():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # The reader is gone before the child starts, so its write to stdout fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "moyal", "--json", "check-lie", "--a", "(v1*u2 - v2*u1)^2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert "Traceback" not in err and "Exception ignored" not in err
    assert proc.returncode == 2
