"""Machine-speed sampling, so that times from different minutes compare.

The benchmark runs on shared virtual machines whose CPU speed drifts a lot
while a run is going.  On the 2-core VM where the benchmark was defined, a
fixed 30 ms task took anywhere from 18 to 43 ms within one minute, and ten
30-second runs of the ``trajectory`` workload spread by 23% of their
median: more than a regression bound can absorb.

``SpeedSampler`` runs a short fixed task (about 2 ms) from a timer signal
every ``INTERVAL_S`` while the jobs run, so the samples cover the jobs
evenly, long ones included.  The time spent in the samples is subtracted
from the measured times, and each pass's times are scaled by
``REFERENCE_S / mean sample time``: they read as seconds at the reference
speed.  Sampling only at job boundaries was tried first; it missed the
speed inside long jobs such as ``sweep_epsilon``.

The task imitates the program's hot path without calling it: a recursive
walk over a small expression tree with dictionary lookups and float
arithmetic, plus small-array numpy updates and a 4 x 4 determinant.  It
must never change, or times before and after the change stop being
comparable.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

ROUNDS = 100
# sample time at this machine's typical speed, so scaled times read close
# to the raw ones
REFERENCE_S = 0.0021
INTERVAL_S = 0.1


class _Num:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def walk(self, env):
        return self.value


class _Var:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def walk(self, env):
        return env[self.name]


class _Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right

    def walk(self, env):
        x = self.left.walk(env)
        y = self.right.walk(env)
        if self.op == "+":
            return x + y
        if self.op == "*":
            return x * y
        return x / y


def _tree(depth: int, i: int = 0):
    if depth == 0:
        return _Var(f"x{i % 4}") if i % 3 else _Num(1.5)
    return _Bin("+*/"[i % 3], _tree(depth - 1, 2 * i + 1), _tree(depth - 1, 2 * i + 2))


_TREE = _tree(6)
_MATRIX = np.eye(4)


def calibrate() -> float:
    """Seconds this machine takes for the fixed task now."""
    started = time.perf_counter()
    env = {"x0": 0.3, "x1": 0.7, "x2": 1.1, "x3": 1.3}
    x = np.array([0.3, 0.7, 1.1, 1.3])
    total = 0.0
    for k in range(ROUNDS):
        total += _TREE.walk(env)
        v = np.zeros(4)
        v[0] = total * 1e-9
        x = x + 0.5e-3 * v
        if k % 8 == 0:
            total += np.linalg.det(_MATRIX)
    return time.perf_counter() - started


class SpeedSampler:
    """Samples ``calibrate`` from SIGALRM while active.  Only for the main
    thread of a process that uses no other interval timer."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused_wall = 0.0
        self.paused_cpu = 0.0

    def _sample(self, signum, frame):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.samples.append(calibrate())
        self.paused_wall += time.perf_counter() - wall0
        self.paused_cpu += time.process_time() - cpu0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self) -> float:
        """Reference speed over current speed; 1.0 when nothing was sampled."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.fmean(self.samples)
