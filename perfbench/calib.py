"""Machine-speed calibration.

On the 2-core machine the benchmark was built on, pure-Python code runs
up to 40% slower in some spells than in others, and the spells last from
seconds to minutes, so a run's figures moved with the machine more than
with the program.  The benchmark therefore times a fixed reference task
next to every measurement and scales the measured time by
``reference / task time``: the figures it reports are those the program
would show when the task takes its reference time.  The tasks use only
builtins, numpy and the interpreter, so no change to pisom can change them.

Three tasks, matched to what a workload spends its time on:

* LOOP: a builtins-only loop (dict, tuple and int work), for pure-Python
  workloads.
* MIXED: the geometric mean of LOOP and a LAPACK task (eigvalsh and the
  2-norm of a fixed 40 x 40 matrix), for numeric work, whose eigensolves
  slow down less than Python does.
* INTERPRETER: starting and stopping a bare interpreter, for work that is
  a process of its own (a CLI call); process start-up varies apart from
  the loop.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

LOOP_N = 10000
_H = np.random.default_rng(0).standard_normal((40, 40))
_H = _H + _H.T


def _loop() -> int:
    d: dict = {}
    acc = 0
    for i in range(LOOP_N):
        k = (i * 7) % 97
        d[k] = d.get(k, 0) + i
        acc += len((i, k, i))
    return acc


def _lapack() -> None:
    for _ in range(4):
        np.linalg.eigvalsh(_H)
        np.linalg.norm(_H, 2)


def _median_time(task, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        task()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def _interpreter() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Calibration:
    def __init__(self, reference: float, sample):
        self.reference = reference  # the task's time on that machine, typical
        self.sample = sample  # seconds the task takes right now

    def scale(self, before: float, after: float) -> float:
        """Factor turning times measured between two samples into reference time."""
        return self.reference / ((before + after) / 2)


LOOP = Calibration(0.0030, lambda: _median_time(_loop, 3))
MIXED = Calibration((0.0030 * 0.0013) ** 0.5, lambda: (_median_time(_loop, 3) * _median_time(_lapack, 3)) ** 0.5)
INTERPRETER = Calibration(0.050, lambda: _median_time(_interpreter, 1))
