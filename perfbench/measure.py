"""Statistics, span arithmetic and the reference clock of the benchmark;
no polyharm import."""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Sequence

# What one pass of reference_kernel() takes at reference speed: about its
# time in a tight loop on a quiet 2-vCPU x86-64 VM with Python 3.11. Samples
# taken between operations run colder, so on that machine reported times read
# up to about a third below wall-clock times.
REFERENCE_KERNEL_S = 0.0015
# Least time between two samples of the kernel within a round.
SAMPLE_EVERY_S = 0.05

# Exact counters that hold a maximum; every other counter is a sum.
MAX_COUNTERS = frozenset({"tension.max_degree", "pharmonic.coeff_bits_max"})

# A span as the tracer records it: (name, start, end, parent index or None, op id).
Span = tuple[str, float, float, "int | None", str]


def percentile(values: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it. Returns it with the number of samples beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} is outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median,
    with quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Per span name, the summed duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - _covered(children.get(idx, ()), start, end)
    return dict(out)


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def merge_counters(parts: Iterable[dict[str, int]]) -> dict[str, int]:
    """Combine the counters of several interpreters into one set."""
    out: dict[str, int] = {}
    for part in parts:
        for name, value in part.items():
            if name in MAX_COUNTERS:
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    return out


def reference_kernel() -> float:
    """Time one pass of a fixed pure-Python loop of Fraction arithmetic and
    dict updates, like polyharm's inner loops. The garbage collector is off
    meanwhile, so that the size of the caller's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict[tuple[int, int], Fraction] = {}
        for i in range(1, 400):
            key = (i % 17, i % 5)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13 + 1, i % 7 + 1) * (i % 11)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """How fast the machine runs, sampled with reference_kernel() between
    timed operations.

    On a shared machine the same work takes up to twice as long from one
    minute to the next. Times multiplied by factor() are times at reference
    speed: they keep what the program changes and drop most of what the
    neighbours change, because the kernel slows down with them."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self.calls = 0
        self.ends: list[float] = []  # when each sample ended
        self.times: list[float] = []  # what each sample took

    def sample(self, calls: int = 1) -> None:
        for _ in range(calls):
            took = reference_kernel()
            self.total_s += took
            self.calls += 1
            self.ends.append(time.perf_counter())
            self.times.append(took)

    def maybe_sample(self) -> None:
        """Sample if SAMPLE_EVERY_S has passed since the last sample."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        return factor(self.total_s, self.calls)

    def at_reference(self, start: float, end: float) -> float:
        """The time from start to end at reference speed, without the time of
        any sample inside it. Each stretch between two samples is scaled by
        those two samples, since the machine's speed drifts within a round."""
        total = 0.0
        i = bisect.bisect_right(self.ends, start) - 1  # last sample before start
        t = start
        while t < end:
            j = i + 1
            stop = min(end, self.ends[j] - self.times[j]) if j < len(self.ends) else end
            near = [self.times[k] for k in (i, j) if 0 <= k < len(self.times)]
            total += max(0.0, stop - t) * factor(sum(near), len(near))
            if j >= len(self.ends):
                break
            t, i = self.ends[j], j
        return total


def factor(total_s: float, calls: int) -> float:
    """Multiplier from measured time to time at reference speed."""
    return REFERENCE_KERNEL_S * calls / total_s
