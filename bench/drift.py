"""Machine-drift references timed between (and during) operations.

The speed of this shared machine moves by tens of percent within seconds, so
every operation's time is scaled by R0 / R: R is the local reference time
around the operation and R0 a fixed constant close to the reference's time
on the machine the benchmark was calibrated on.

* The reference loop multiplies two fixed sparse polynomials with Fraction
  coefficients, the kind of work moyal's scalar and polynomial layers do.  It
  is pure Python, imports nothing from `moyal`, and runs with the garbage
  collector paused.  An interval timer runs it every 50 ms, also in the
  middle of an operation; the operation's time excludes the samples taken
  inside it, and R is the mean of those samples and of the two that bracket
  the operation.
* The cli workload's operations are interpreter start-ups, which do not slow
  down the way Python bytecode does (the loop did not track them).  Its
  reference is a bare interpreter start, `python -c pass`, taken after every
  command; R is the mean of the two that bracket the command.

Set-up and per-layer times are scaled by the reference loop: set-up by the
samples just before and after it, per-layer times by the run's mean.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Reference times, in seconds, on the calibration machine.
R0 = 0.0012
R0_PROCESS = 0.065

# Seconds between two reference-loop samples.
INTERVAL = 0.05


def _fixed_poly(seed: int) -> list[tuple[tuple[int, ...], Fraction]]:
    state, terms = seed, []
    for _ in range(16):
        state = (state * 1103515245 + 12345) % 2**31
        exps = (state % 4, state // 4 % 4, state // 16 % 4, state // 64 % 4)
        terms.append((exps, Fraction(state // 256 % 19 - 9 or 1, state // 4096 % 6 + 1)))
    return terms


_LEFT, _RIGHT = _fixed_poly(1), _fixed_poly(2)


def reference_loop() -> int:
    """The product of two fixed 16-term polynomials over Q, as a dict of terms."""
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in _LEFT:
        for eb, cb in _RIGHT:
            exps = tuple(a + b for a, b in zip(ea, eb))
            c = ca * cb
            acc = out.get(exps)
            if acc is not None:
                c = acc + c
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
    return len(out)


def reference_sample() -> float:
    """Seconds taken by one reference loop, with the collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def process_sample() -> float:
    """Seconds taken to start and end a bare interpreter."""
    start = time.perf_counter()
    # Reading the (empty) output returns at exit; a bare wait with a timeout
    # would poll with sleeps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


class DriftSampler:
    """Reference samples of one kind, and the seconds spent taking them."""

    def __init__(self, measure=reference_sample, r0: float = R0, interval: float = INTERVAL):
        self.measure = measure
        self.r0 = r0
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(self.measure())
        self._last = time.perf_counter()
        self.spent += self._last - start

    def maybe_sample(self) -> None:
        """Sample if `interval` seconds have passed (for passes run without the timer)."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    @contextlib.contextmanager
    def periodic(self):
        """Sample every `interval` seconds of wall time, from a SIGALRM timer."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def local_reference(self, before: int, after: int) -> float:
        """Mean of samples[before..after]: the last one before an op, those
        taken during it, and the first one after it."""
        return statistics.fmean(self.samples[before : after + 1])
