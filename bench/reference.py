"""Fixed reference kernel and the calibration that divides machine speed out.

The speed of a shared machine drifts by tens of percent within seconds, so
a raw wall time says as much about the neighbours as about heraldsim.  Each
timed repeat is therefore bracketed by a fixed, heraldsim-independent
reference kernel, and reported as

    calibrated = raw * R0 / R,   R = (reference before + reference after) / 2

with R0 a constant.  The kernel mixes the kinds of work the workloads do:
an interpreted Python loop, a few thousand tiny numpy calls, about a hundred
Philox constructions and random fills of an L2-resident buffer.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

# Nominal reference time: a calibrated time is "seconds on a machine whose
# reference kernel takes R0_S".
R0_S = 0.015

T = TypeVar("T")


def reference_kernel() -> float:
    """Fixed work; returns a value so nothing is optimised away."""
    acc = 0
    for i in range(108_000):
        acc += (i * i) % 7
    a = np.arange(64, dtype=np.float64)
    for _ in range(2_700):
        a = np.sqrt(a + 1.0)
    for k in range(108):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([k, 7], dtype=np.uint64)))
    fill = np.empty(60_000)
    for _ in range(9):
        gen.random(out=fill)
    return acc + float(a[0]) + float(fill[-1])


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


@dataclass(frozen=True)
class Timing:
    """One timed repeat and the reference times bracketing it."""

    raw_s: float
    ref_before_s: float
    ref_after_s: float

    @property
    def ref_s(self) -> float:
        return (self.ref_before_s + self.ref_after_s) / 2.0

    @property
    def scale(self) -> float:
        """R0 / R: multiplies this repeat's raw seconds into calibrated ones."""
        return R0_S / self.ref_s

    @property
    def calibrated_s(self) -> float:
        return self.raw_s * self.scale


def bracketed(fn: Callable[[], T]) -> tuple[Timing, T]:
    """Run ``fn`` between two reference timings."""
    before = time_reference()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    after = time_reference()
    return Timing(raw, before, after), result


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
