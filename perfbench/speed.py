"""A machine-speed probe run between the workload's CLI calls.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass can take 1.5 times as long a few minutes later, for every kind of
code at once.  So between calls the benchmark runs a fixed slice of work that
owes nothing to naqae (a loop of small numpy calls, uniform draws, and
transcendental functions over a few-MiB array, the three kinds of work naqae
does) and times it.  Slices are owed in proportion to the workload time since
the last one, so they sample the machine evenly through a pass.  The mean
slice time over a pass, divided by ``REFERENCE_S``, is how much slower the
machine ran than at the reference speed; timings are scaled by it.

The slice allocates nothing large after construction, so it does not raise
the process's peak resident memory above what the workload sets.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds of workload between two slices; a slice takes about 1/6 of this.
INTERVAL_S = 0.12
# Median slice time on the 2-vCPU Intel Xeon host the bounds were set on.
# Only the ratio of timings matters to a bound, so this constant just keeps
# scaled numbers near the wall-clock ones.
REFERENCE_S = 0.018


class SpeedProbe:
    def __init__(self) -> None:
        self._ms = np.arange(41.0)
        self._y = 0.5 * (1.0 - np.cos(self._ms))
        self._x = np.linspace(0.0, 1.0, 400_000)
        self._a = np.empty_like(self._x)
        self._b = np.empty_like(self._x)
        self._draws = np.empty(262_144)
        self._hits = np.empty(self._draws.size, dtype=bool)
        self._owed = 0.0
        self.slices: list[float] = []

    def run_slice(self) -> float:
        """Run one fixed slice of work; returns its seconds."""
        start = time.perf_counter()
        t = 0.3
        for _ in range(300):
            model = 0.5 * (1.0 - np.exp(-0.01 * self._ms) * np.cos(2.0 * t * self._ms))
            t = (t + float(np.sum((self._y - model) ** 2))) % 1.0
        rng = np.random.default_rng(7)
        for _ in range(6):
            rng.random(out=self._draws)
            np.less(self._draws, 0.3, out=self._hits)
            np.count_nonzero(self._hits)
        np.multiply(self._x, 3.0, out=self._a)
        np.cos(self._a, out=self._a)
        np.negative(self._x, out=self._b)
        np.exp(self._b, out=self._b)
        np.multiply(self._a, self._b, out=self._a)
        # (0.3 - p)^2 with p = (1 - a) / 2
        np.multiply(self._a, 0.5, out=self._b)
        np.add(self._b, -0.2, out=self._b)
        np.square(self._b, out=self._b)
        float(self._b.sum())
        return time.perf_counter() - start

    def after(self, workload_s: float) -> float:
        """Run the slices owed after ``workload_s`` more seconds of workload.

        Returns the seconds the slices took.
        """
        self._owed += workload_s
        spent = 0.0
        while self._owed >= INTERVAL_S:
            self._owed -= INTERVAL_S
            self.slices.append(self.run_slice())
            spent += self.slices[-1]
        return spent

    def take(self) -> list[float]:
        """The slices run since the last ``take``; at least one is run."""
        if not self.slices:
            self.slices.append(self.run_slice())
        slices, self.slices = self.slices, []
        return slices


def slowdown(slices: list[float]) -> float:
    """How many times slower than the reference the machine ran."""
    return statistics.fmean(slices) / REFERENCE_S
