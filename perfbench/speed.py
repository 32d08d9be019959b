"""Fixed reference tasks that track how fast the machine runs right now.

Shared cloud cores change speed by up to ~1.8x within seconds when the host
is busy, which moves every wall-clock figure of a run by more than any
bound a regression check could use.  A probe is a short, fixed task timed
between ops; an op time divided by the probe time around it no longer
depends on the machine's current speed.  Work of different kinds slows by
different factors, so each workload names the probe that does its kind:

- ``lp``: scipy's HiGHS on a fixed dense 60x80 LP, called directly and not
  through infodist, for the LP workloads.  Over three minutes of mixed
  ops on a 2-vCPU VM, the interquartile range over the median of op time
  divided by this probe was 0.064 (a K=4, L=8 large-random op), 0.067 (six
  small-random ops) and 0.063 (ten catalog members), against 0.081-0.124
  unscaled and 0.12-0.20 divided by ``scalar``;
- ``gather``: products and sums of 256 pairs of columns gathered from a
  2000x2000 0/1 single-precision table, the memory-bound part of the Markov
  statistics.  Over 150 s of alternating Markov calls, the same measure of
  the calls was 0.062 and 0.068 divided by this probe, 0.101 and 0.088
  unscaled and 0.142 and 0.121 divided by a small in-cache matrix product;
- ``scalar``: interpreter loops, small numpy calls, a small LAPACK solve
  and a strided gather, for set-up, which is mostly imports.

A probe is the fastest of three repetitions, so an interrupt or the caches
a long op left cold do not read as a slow machine.
"""

from __future__ import annotations

import time

import numpy as np

# Reported times are scaled as if every probe of the kind took this long.
REFERENCE_MS = {"lp": 4.5, "gather": 4.0, "scalar": 0.3}
REPEATS = 3


def _lp(rng: np.random.Generator):
    from scipy.optimize import linprog

    a = rng.random((60, 80))
    b = a @ rng.random(80) + 1.0
    c = -rng.random(80)
    return lambda: linprog(c, A_ub=a, b_ub=b, method="highs")


def _gather(rng: np.random.Generator):
    table = (rng.random((2000, 2000)) < 0.5).astype(np.float32)
    first, second = rng.integers(0, 2000, (2, 256))
    return lambda: (table[:, first] * table[:, second]).sum(axis=0)


def _scalar(rng: np.random.Generator):
    matrix = rng.random((48, 48)) + 48.0 * np.eye(48)
    table = rng.random((1000, 1000), dtype=np.float32)
    columns = rng.integers(0, 1000, 16)

    def task() -> None:
        counts: dict[int, int] = {}
        for i in range(1500):
            counts[i % 97] = counts.get(i % 97, 0) + i
        x = np.arange(48.0)
        for _ in range(60):
            x = np.maximum(x * 1.0001, 0.5) - 0.1
        np.linalg.solve(matrix, x)
        table[:, columns].sum(axis=0)

    return task


TASKS = {"lp": _lp, "gather": _gather, "scalar": _scalar}


class Probe:
    """Callable returning one probe's wall time in seconds; keeps samples."""

    def __init__(self, kind: str):
        self.reference = REFERENCE_MS[kind] / 1e3
        self.samples: list[float] = []
        self._task = TASKS[kind](np.random.default_rng(0))

    def __call__(self) -> float:
        took = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._task()
            took = min(took, time.perf_counter() - start)
        self.samples.append(took)
        return took
