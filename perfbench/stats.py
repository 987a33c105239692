"""The benchmark's own arithmetic, kept free of the program under test.

Every function here is pure and covered by ``test_stats.py``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q`` percentile
    rank: the samples a reported tail value rests on."""
    return n - math.ceil(n * q / 100.0)


def reportable(n: int, q: float, min_beyond: int = 10) -> bool:
    """A percentile is reported only with ``min_beyond`` samples past it."""
    return samples_beyond(n, q) >= min_beyond


def failed_share(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones; nothing attempted, nothing
    failed."""
    if failed < 0 or attempted < 0:
        raise ValueError("counts must be non-negative")
    if failed > attempted:
        raise ValueError("more failures than attempts")
    return failed / attempted if attempted else 0.0


def parallel_efficiency(busy_s: float, wall_s: float, workers: int) -> float:
    """Useful work over the capacity paid for: busy / (wall x workers)."""
    if workers < 1:
        raise ValueError("need at least one worker")
    if wall_s <= 0:
        raise ValueError("wall time must be positive")
    return busy_s / (wall_s * workers)


def covered(intervals: Iterable[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence) -> list[float]:
    """Per span: its duration minus the time its child spans cover.

    ``spans`` carry ``start``, ``end`` and ``parent`` (an index into
    ``spans``, negative at a root).  Children may nest or overlap; time
    covered twice is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start,
                                                         span.end))
    return [span.end - span.start
            - covered(children.get(i, ()), span.start, span.end)
            for i, span in enumerate(spans)]


def self_time_by_name(spans: Sequence) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals
