"""One round of a workload in a fresh interpreter; run.py starts it.

    python3 bench/worker.py <workload> <seed> <trace 0|1> <round>

Set-up (importing moyal and building the seeded inputs) is timed, then one
pass over the operations, with the drift reference samples of drift.py.  With trace 1 the pass runs under cProfile, the per-layer
figures are added and the profile is saved as
bench/out/<workload>-seed<seed>-round<round>.prof.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import time

import drift

# The first runs of the loop in a fresh interpreter are slow; the last of
# these is the reference just before set-up.
SETUP_REF = [drift.reference_sample() for _ in range(3)][-1]
SETUP_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))

import moyal  # noqa: E402

if Path(moyal.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"moyal was imported from {moyal.__file__}, not from {SRC}")

import layers  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 5


def run_pass(ops, sampler, profile=None, between_ops=True):
    """Time each op; check its output outside the timed region.

    Per op the worker reports its seconds (less the reference samples taken
    inside it), the local reference time around it and whether it completed.
    An op that raises has failed; checks judge only the ops that completed.
    """
    op_s, windows, failed_at, failures, problems = [], [], [], [], []
    for op in ops:
        before, spent = len(sampler.samples) - 1, sampler.spent
        if profile:
            profile.enable()
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as err:  # one failed op must not end the round
            failure = f"{op.kind}: {type(err).__name__}: {err}"
        else:
            failure = None
        elapsed = time.perf_counter() - start
        if profile:
            profile.disable()
        op_s.append(elapsed - (sampler.spent - spent))
        windows.append((before, len(sampler.samples)))
        if failure is None:
            problems.extend(f"{op.kind}: {p}" for p in op.check(result))
        else:
            failed_at.append(len(op_s) - 1)
            failures.append(failure)
        if between_ops:
            sampler.maybe_sample()
    sampler.sample()
    return {
        "op_s": op_s,
        "op_ref": [sampler.local_reference(b, a) for b, a in windows],
        "failed_at": failed_at,
        "attempted": len(ops),
        "failures": sorted(set(failures)),
        "problems": problems[:MAX_PROBLEMS],
    }


def main(argv: list[str]) -> int:
    workload, seed, trace, round_index = argv[0], int(argv[1]), argv[2] == "1", int(argv[3])
    if workload == "cli":
        ops = workloads.build_cli(seed, in_process=trace)
    else:
        ops = workloads.BUILDERS[workload](seed)
    setup_s = time.perf_counter() - SETUP_START
    out = {"setup_s": setup_s, "setup_ref": (SETUP_REF + drift.reference_sample()) / 2}
    if trace:
        sampler = drift.DriftSampler()
        sampler.sample()
        tracer = layers.Tracer()
        if workload == "cli":
            cli_figures = layers.cli_timings(ops, sampler)
        else:
            cli_figures = dict.fromkeys(layers.CLI_METRICS, 0.0)
        with tracer.pair_reuse():
            out.update(run_pass(ops, sampler, tracer.profile))
        out["layers"] = {**tracer.metrics(), **cli_figures, "trace.pass_s": sum(out["op_s"])}
        OUT.mkdir(exist_ok=True)
        tracer.profile.dump_stats(OUT / f"{workload}-seed{seed}-round{round_index}.prof")
    elif workload == "cli":
        sampler = drift.DriftSampler(drift.process_sample, drift.R0_PROCESS, interval=0.0)
        sampler.sample()
        out.update(run_pass(ops, sampler))
    else:
        sampler = drift.DriftSampler()
        sampler.sample()
        with sampler.periodic():
            out.update(run_pass(ops, sampler, between_ops=False))
    usage = resource.RUSAGE_CHILDREN if workload == "cli" and not trace else resource.RUSAGE_SELF
    out["peak_rss_kb"] = resource.getrusage(usage).ru_maxrss
    out["r0"] = sampler.r0
    out["ref_s"] = sampler.samples
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
