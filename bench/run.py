"""Drift-corrected benchmark of moyal: products, dense_products, classify, cli.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the sources are taken from ../src relative to this file.
A run repeats whole rounds until --seconds have passed (at least
MIN_ROUNDS untraced).  Each round is a fresh interpreter (worker.py) that
imports moyal, builds the seeded inputs (set-up) and times one pass over
them, so every round pays the cold caches a user's process pays.  All time
metrics are scaled by R0/R (see drift.py); the raw values are printed
beside them.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics from
cProfile (--trace 1).  Results are also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import drift
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("products", "dense_products", "classify", "cli")
MIN_ROUNDS = 3
# A run must end within 180 s: start no round that would likely end after
# HARD_LIMIT_S, and stop any round still running at DEADLINE_S.
HARD_LIMIT_S = 150.0
DEADLINE_S = 170.0

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
P90_MIN_OPS = 100


class BenchError(Exception):
    pass


def run_round(workload: str, seed: int, trace: bool, index: int, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(int(trace)), str(index)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=timeout
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} round timed out after {err.timeout} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    min_rounds = 1 if trace else MIN_ROUNDS
    start = time.perf_counter()
    rounds, longest = [], 0.0
    while True:
        began = time.perf_counter()
        timeout = DEADLINE_S - (began - start)
        rounds.append(run_round(workload, seed, trace, len(rounds), timeout))
        longest = max(longest, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed >= seconds:
            return rounds
        if elapsed + longest > HARD_LIMIT_S:
            return rounds


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(workload: str, rounds: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """The result object and the human-readable lines for one workload."""
    r0 = rounds[0]["r0"]
    ref_mean = statistics.fmean(s for r in rounds for s in r["ref_s"])
    run_scale = r0 / ref_mean
    raw_s, fixed_s, raw_ok, fixed_ok = [], [], [], []
    for r in rounds:
        failed_at = set(r["failed_at"])
        for k, (s, ref) in enumerate(zip(r["op_s"], r["op_ref"])):
            raw_s.append(s)
            fixed_s.append(s * r0 / ref)
            if k not in failed_at:
                raw_ok.append(raw_s[-1])
                fixed_ok.append(fixed_s[-1])
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failed_at"]) for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    failures = sorted({f for r in rounds for f in r["failures"]})
    lines = [
        f"workload {workload}: {len(rounds)} rounds, attempted {attempted}, failed {failed}, "
        f"correct {not problems}",
        f"  drift: mean R = {ref_mean * 1e3:.4f} ms over {sum(len(r['ref_s']) for r in rounds)} "
        f"samples, R0 = {r0 * 1e3:.4f} ms",
    ]
    lines += [f"  failed op: {f}" for f in failures]
    lines += [f"  WRONG: {p}" for p in problems[:10]]
    if trace:
        raw = {
            name: statistics.fmean(r["layers"][name] for r in rounds) for name in layers.METRICS
        }
        metrics = {}
        for name, unit in layers.METRICS.items():
            timed = unit in ("s", "ms")
            value = raw[name] * run_scale if timed else raw[name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:26s} {value:14.6g} {unit}" + (f"  (raw {raw[name]:.6g})" if timed else ""))
    else:
        setup = _median([r["setup_s"] for r in rounds])
        fixed_setup = _median([r["setup_s"] * drift.R0 / r["setup_ref"] for r in rounds])
        values = {
            "ops_per_s": (len(fixed_ok) / sum(fixed_s), len(raw_ok) / sum(raw_s)),
            "op_p50_ms": (_median(fixed_ok) * 1e3, _median(raw_ok) * 1e3),
            "setup_s": (fixed_setup, setup),
            "peak_rss_mb": (_median([r["peak_rss_kb"] for r in rounds]) / 1024, None),
        }
        if len(fixed_ok) >= P90_MIN_OPS:
            values["op_p90_ms"] = tuple(statistics.quantiles(v, n=10)[-1] * 1e3 for v in (fixed_ok, raw_ok))
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END.items()}
        units = dict(END_TO_END, op_p90_ms="ms")
        for name, (value, raw) in values.items():
            lines.append(f"  {name:12s} {value:12.6g} {units[name]}" + ("" if raw is None else f"  (raw {raw:.6g})"))
        lines.append(f"  completed ops: {len(fixed_ok)}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rounds = run_rounds(workload, seed, seconds, trace)
    result, lines = summarize(workload, rounds, trace)
    print("\n".join(lines))
    OUT.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps({"result": result, "rounds": rounds}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "moyal" / "__init__.py").is_file():
        print(f"error: no moyal sources at {ROOT / 'src' / 'moyal'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
