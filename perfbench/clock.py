"""Operation times scaled to one reference speed of the machine.

The cores this benchmark was built on are shared with other tenants: the
reference loop below takes 110, 160 or 190 µs, switching within a second,
and the program's calls slow down and speed up with it. A raw time therefore
says as much about the moment as about the program. Before and after each
call the clock times the loop (the faster of two tries on each side); a
short call's time is scaled by ``REFERENCE_S`` over the mean of the two, and
reads as the time on a machine where the loop takes ``REFERENCE_S``. Calls
lasting seconds are scaled by the mean of all the loops of their stage
instead (``stage_scale``).
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

REFERENCE_S = 1.6e-4  # about the loop's median on the machine the README was measured on

_MATRIX = np.random.default_rng(0).random((48, 48))


def _reference_loop() -> float:
    """Interpreter work, small numpy calls and one BLAS call, as the program mixes them."""
    total = 0.0
    for i in range(600):
        total += i * 0.5
    acc = _MATRIX[0]
    for _ in range(40):
        acc = np.tanh(acc * 0.5 + 0.1)
    product = _MATRIX @ _MATRIX
    summed = np.einsum("ij,jk->ik", _MATRIX[:16], _MATRIX[:, :16])
    return total + float(acc[0] + product[0, 0] + summed[0, 0])


class Clock:
    def __init__(self):
        self.loop_s: List[float] = []
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def reference(self) -> float:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            _reference_loop()
            best = min(best, time.perf_counter() - start)
        self.loop_s.append(best)
        return best

    def scale(self, raw: float, before: float, after: float) -> float:
        """``raw`` seconds at the reference speed, from the loop times around it."""
        scaled = raw * REFERENCE_S / ((before + after) / 2.0)
        self.raw_s += raw
        self.scaled_s += scaled
        return scaled

    def stage_scale(self) -> float:
        """Time multiplier from every loop timed so far in this process.

        A call that lasts seconds spans many speed changes that the loops on
        its edges cannot see; the mean of all the stage's loops follows the
        speed it ran at better. The loop time has two modes, about 125 and
        200 µs; the mean moves with the share of time spent in each, where
        the median jumps from one mode to the other.
        """
        return REFERENCE_S / statistics.mean(self.loop_s)

    def summary(self) -> dict:
        q = statistics.quantiles(self.loop_s, n=4) if len(self.loop_s) > 1 else [0.0] * 3
        return {"reference_s": REFERENCE_S, "loop_mean_s": statistics.mean(self.loop_s),
                "loop_median_s": statistics.median(self.loop_s),
                "loop_q1_s": q[0], "loop_q3_s": q[2], "loops": len(self.loop_s),
                "raw_over_scaled": self.raw_s / self.scaled_s if self.scaled_s else None}
