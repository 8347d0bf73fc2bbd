"""A fixed reference computation that measures how fast the machine runs right now.

On small shared machines the CPU speed seen by one process drifts by up to
2x over seconds to minutes, and it slows this package's requests in step:
small numpy products and exponentials, random draws and interpreter work.
The kernel below does the same kinds of work, so the ratio of a request's
latency to the kernel's time next to it changes with the program but hardly
with the machine.  One "cal" is one run of this kernel.

Do not change this file: the normalized metrics are in its units, and a
change makes them incomparable with every earlier run.
"""

from __future__ import annotations

import time

import numpy as np

_M = np.random.default_rng(0).standard_normal((7, 7)) * 0.1
_W = np.linspace(-1.0, 0.0, 7) + 0j
_REPEATS = 3


def _kernel():
    rng = np.random.default_rng(1)
    x = np.ones(7)
    acc = 0.0
    for i in range(60):
        x = np.real(_M @ (np.exp(0.01 * _W) * x)) + 1.0
        acc += rng.exponential(1.0) + float(x @ x) * 1e-9
        d = {"a": acc, "b": i}
        acc += d["b"] * 1e-12
    return acc


def cal_seconds():
    """Seconds one kernel run takes now: the fastest of three back-to-back runs."""
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
