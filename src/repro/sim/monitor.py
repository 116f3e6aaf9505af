"""Statistics collection for simulations.

All experiment output flows through these small accumulators.  They are
deliberately dependency-free (no numpy) so the core library stays pure;
the benchmark harness may post-process with numpy/scipy.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.sim.core import Simulator


class Counter:
    """A named monotonically increasing event counter."""

    __slots__ = ("name", "count")

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.count = 0

    def increment(self, by: int = 1) -> None:
        if by < 0:
            raise ValueError("Counter only increments")
        self.count += by

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.count})"


class WelfordStat:
    """Streaming mean/variance via Welford's algorithm.

    Numerically stable for long runs; used for per-sample statistics such
    as latencies.
    """

    __slots__ = ("n", "_mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant signal.

    Used for occupancies and utilisations: ``record(t, level)`` notes that
    the signal changed to *level* at time *t*; the mean weights each level
    by how long it was held.
    """

    __slots__ = ("_last_time", "_last_level", "_area", "_start", "maximum")

    def __init__(
        self, start_time: float = 0.0, initial_level: float = 0.0
    ) -> None:
        self._start = start_time
        self._last_time = start_time
        self._last_level = initial_level
        self._area = 0.0
        self.maximum = initial_level

    @property
    def current(self) -> float:
        return self._last_level

    def record(self, now: float, level: float) -> None:
        if now < self._last_time:
            raise ValueError("time went backwards in TimeWeightedStat")
        self._area += self._last_level * (now - self._last_time)
        self._last_time = now
        self._last_level = level
        if level > self.maximum:
            self.maximum = level

    def mean(self, now: Optional[float] = None) -> float:
        """Time-weighted mean over [start, now]."""
        end = self._last_time if now is None else now
        area = self._area + self._last_level * max(0.0, end - self._last_time)
        span = end - self._start
        return area / span if span > 0 else self._last_level


class ThroughputMeter:
    """Accumulates delivered payload bytes and reports bit rates."""

    __slots__ = ("sim", "bytes_total", "_opened")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.bytes_total = 0
        self._opened = sim.now

    def account(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("cannot account negative bytes")
        self.bytes_total += nbytes

    def bits_per_second(self, now: Optional[float] = None) -> float:
        end = self.sim.now if now is None else now
        span = end - self._opened
        return (self.bytes_total * 8) / span if span > 0 else 0.0

    def megabits_per_second(self, now: Optional[float] = None) -> float:
        return self.bits_per_second(now) / 1e6


class SeriesRecorder:
    """Records (time, value) samples for later plotting or assertions."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = "series") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, t: float, v: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError("series times must be non-decreasing")
        self.times.append(t)
        self.values.append(v)

    def __len__(self) -> int:
        return len(self.times)
