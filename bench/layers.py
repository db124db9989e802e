"""Per-layer figures of a traced round, taken from cProfile around the pass.

A layer is a module of `moyal`.  `<layer>.self_s` is cProfile tottime summed
over the module's functions (for scalars, stdlib `fractions` too);
`.calls` and `.cum_s` belong to one named function.  `star.pair_reuse` is
counted by wrapping `star` from outside: the share of (kernel, f-monomial,
g-monomial) items that were already seen earlier in the round.
"""

from __future__ import annotations

import contextlib
import cProfile
import fractions
import importlib
import os
import pstats
import statistics
import subprocess
import sys
import time
from pathlib import Path

SELF_TIME_MODULES = ("scalars", "poly", "star", "operators", "cocycle", "lie", "linalg", "expressions")

# metric -> (field, functions as "module:qualname")
FUNCTIONS = {
    "scalars.mul.calls": ("calls", ["moyal.scalars:Coefficient.__mul__"]),
    "scalars.make.calls": ("calls", ["moyal.scalars:Coefficient.make"]),
    "scalars.gcd.calls": ("calls", ["moyal.scalars:MuPoly.gcd"]),
    "scalars.fraction.calls": ("calls", ["fractions:Fraction.__new__"]),
    "poly.mul.calls": ("calls", ["moyal.poly:Poly.__mul__"]),
    "poly.add.calls": ("calls", ["moyal.poly:Poly.__add__"]),
    "poly.substitute.cum_s": ("cum", ["moyal.poly:Poly.substitute"]),
    "poly.apply_once.calls": ("calls", ["moyal.poly:DiffOp.apply_once"]),
    "poly.apply_exp.cum_s": ("cum", ["moyal.poly:DiffOp.apply_exp"]),
    "star.star.calls": ("calls", ["moyal.star:star"]),
    "star.star.cum_s": ("cum", ["moyal.star:star"]),
    "star.bracket.cum_s": ("cum", ["moyal.star:bracket"]),
    "star.u_map.cum_s": ("cum", ["moyal.star:u_map"]),
    "operators.nc_mul.cum_s": ("cum", ["moyal.operators:nc_mul"]),
    "operators.weyl.cum_s": ("cum", ["moyal.operators:weyl_quantize", "moyal.operators:weyl_symbol"]),
    "cocycle.factorize.cum_s": ("cum", ["moyal.cocycle:factorize"]),
    "cocycle.defect.cum_s": ("cum", ["moyal.cocycle:cocycle_defect"]),
    "lie.jacobi.cum_s": ("cum", ["moyal.lie:jacobi_defect"]),
    "lie.fit.cum_s": ("cum", ["moyal.lie:_fit_structured"]),
    "lie.center.cum_s": ("cum", ["moyal.lie:center_generators_from_kernel"]),
    "lie.apply_kernel.calls": ("calls", ["moyal.lie:apply_bracket_kernel"]),
    "expressions.parse.calls": ("calls", ["moyal.expressions:parse"]),
}

CLI_METRICS = ("cli.python_ms", "cli.import_ms", "cli.run_ms")

# Every per-layer metric with its unit, in report order.
METRICS = {
    **{f"{m}.self_s": "s" for m in SELF_TIME_MODULES},
    **{name: ("count" if name.endswith(".calls") else "s") for name in FUNCTIONS},
    "star.pair_reuse": "ratio",
    **{name: "ms" for name in CLI_METRICS},
    "trace.pass_s": "s",
}


def _code_key(spec: str):
    """cProfile's key for a function named "module:qualname", or None if it is gone."""
    module_name, qualname = spec.split(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    obj = getattr(obj, "__wrapped__", obj)
    code = getattr(obj, "__code__", None)
    return None if code is None else (code.co_filename, code.co_firstlineno, code.co_name)


class Tracer:
    """A profiler for the pass plus the targets resolved before any wrapping."""

    def __init__(self):
        self.profile = cProfile.Profile()
        self.targets = {
            name: (field, [k for k in map(_code_key, specs) if k is not None])
            for name, (field, specs) in FUNCTIONS.items()
        }
        moyal_dir = Path(importlib.import_module("moyal").__file__).resolve().parent
        self.files = {m: {str(moyal_dir / f"{m}.py")} for m in SELF_TIME_MODULES}
        self.files["scalars"].add(str(Path(fractions.__file__).resolve()))
        self.items = 0
        self.reused = 0

    @contextlib.contextmanager
    def pair_reuse(self):
        """Count (kernel, f-monomial, g-monomial) items passed to `star`."""
        star_module = importlib.import_module("moyal.star")
        original = star_module.star
        seen: set = set()
        kernel_ids: dict = {}

        def counted_star(f, g, kernel):
            kid = kernel_ids.setdefault(kernel, len(kernel_ids))
            for ef in f.terms:
                for eg in g.terms:
                    key = (kid, ef, eg)
                    self.items += 1
                    if key in seen:
                        self.reused += 1
                    else:
                        seen.add(key)
            return original(f, g, kernel)

        bound = [
            (module, name)
            for module in list(sys.modules.values())
            for name, value in list(getattr(module, "__dict__", {}).items())
            if value is original
        ]
        for module, name in bound:
            setattr(module, name, counted_star)
        try:
            yield
        finally:
            for module, name in bound:
                setattr(module, name, original)

    def metrics(self) -> dict[str, float]:
        stats = pstats.Stats(self.profile).stats
        out = {}
        for module, files in self.files.items():
            out[f"{module}.self_s"] = sum(v[2] for k, v in stats.items() if os.path.realpath(k[0]) in files)
        for name, (field, keys) in self.targets.items():
            index = 1 if field == "calls" else 3
            out[name] = sum(stats[k][index] for k in keys if k in stats)
        out["star.pair_reuse"] = self.reused / self.items if self.items else 0.0
        return out


def _median_wall_ms(argv, env, repeats=3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def cli_timings(ops, sampler) -> dict[str, float]:
    """Bare interpreter, `import moyal` over it, and in-process cli.run per command."""
    src = str(Path(importlib.import_module("moyal").__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    python_ms = _median_wall_ms([sys.executable, "-c", "pass"], env)
    sampler.sample()
    import_ms = _median_wall_ms([sys.executable, "-c", "import moyal"], env) - python_ms
    sampler.sample()
    run_ms = []
    for op in ops:
        start = time.perf_counter()
        try:
            op.run()
        except Exception:  # failures are counted by the profiled pass
            pass
        run_ms.append((time.perf_counter() - start) * 1e3)
        sampler.maybe_sample()
    return {
        "cli.python_ms": python_ms,
        "cli.import_ms": import_ms,
        "cli.run_ms": statistics.median(run_ms),
    }
