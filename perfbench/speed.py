"""Correction for the machine's momentary speed.

On a shared host the same op can take 1.7x longer for seconds at a time.
A fixed reference computation in the program's own style (rational and
big-integer elimination, and tuple-keyed dict arithmetic, which is where
every layer spends its time) slows down with it. The benchmark runs the reference
every SAMPLE_EVERY_S of CPU time from a SIGVTALRM handler, and scales each
op's time by NOMINAL_S / (reference time around that op). Reported times,
and the per-op time limits, are therefore seconds on a machine where the
reference takes NOMINAL_S.
"""

from __future__ import annotations

import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Any

import oracle

NOMINAL_S = 0.0011
SAMPLE_EVERY_S = 0.05
RECENT = 3  # samples whose median stands for the speed just before an op

_rng = random.Random(20090911)
_MATRIX = [[Fraction(_rng.randint(1, 60), _rng.randint(1, 60)) for _ in range(5)] for _ in range(5)]
_POLY = {tuple(_rng.randint(0, 3) for _ in range(4)): _rng.randint(-9, 9) or 1 for _ in range(12)}
_WIDE = [[_rng.getrandbits(160) | 1 for _ in range(6)] for _ in range(6)]


def _bareiss(rows: list[list[int]]) -> int:
    """Fraction-free elimination on big integers, as the QQ minors run it."""
    a = [list(r) for r in rows]
    prev = 1
    for k in range(len(a) - 1):
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def reference() -> None:
    """The fixed work whose duration measures the machine's speed."""
    for _ in range(3):
        oracle.det(_MATRIX)
    for _ in range(4):
        _bareiss(_WIDE)
    product: dict[tuple[int, ...], int] = {}
    for _ in range(2):
        for ea, ca in _POLY.items():
            for eb, cb in _POLY.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                product[key] = product.get(key, 0) + ca * cb


def reference_seconds(repeats: int = 5) -> float:
    """Median duration of the reference, measured now."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedSampler:
    """Runs the reference periodically, in-process, while ops execute."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        start = perf_counter()
        reference()
        took = perf_counter() - start
        self.samples.append(took)
        self.handler_s += took

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(reference_seconds())
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.handler_s

    def scale(self, mark: tuple[int, float], raw_s: float) -> float:
        """Normalised seconds for an op that started at mark and took raw_s."""
        count, handler_s = mark
        own_s = raw_s - (self.handler_s - handler_s)
        during = self.samples[count:]
        ref = statistics.fmean(during) if len(during) >= RECENT else self.recent(count)
        return own_s * NOMINAL_S / ref

    def recent(self, count: int | None = None) -> float:
        """Median reference time over the last RECENT samples before count."""
        end = len(self.samples) if count is None else count
        return statistics.median(self.samples[max(0, end - RECENT):end])

    def median_factor(self) -> float:
        return NOMINAL_S / statistics.median(self.samples)
