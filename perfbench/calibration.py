"""How fast the host is right now, measured with code the program lacks.

A shared host's speed drifts by tens of percent over minutes, so each
timed call is bracketed by runs of a fixed loop of interpreter and
small-NumPy work; host seconds are then scaled by
``REFERENCE_CALIBRATION_S`` over the loop's mean time around them.  The
loop touches no repository code, so a faster program cannot speed it up.

Work spread over every CPU (the parallel sweep) is scaled instead by a
``Sampler`` that times slices of the loop while the work runs.
"""

from __future__ import annotations

import threading
from time import perf_counter, thread_time

import numpy as np

#: Seconds one loop takes on the reference host (a 2-vCPU x86-64
#: container, Python 3.11, NumPy 2.4).
REFERENCE_CALIBRATION_S = 0.0105


def _loop(points: np.ndarray) -> float:
    counts: dict[int, int] = {}
    start = perf_counter()
    for i in range(len(points)):
        diff = points[:64] - points[i]
        float(np.sqrt((diff * diff).sum(axis=1)).min())
        counts[i % 97] = counts.get(i % 97, 0) + 1
        [j * 2 for j in range(20)]
    return perf_counter() - start


def calibration_s(loops: int = 25) -> float:
    """Mean time of the loop over ``loops`` runs on this CPU, now.

    25 runs take about a quarter second, which averages over the host's
    faster fluctuations.
    """
    points = np.random.default_rng(0).random((1500, 3))
    return float(np.mean([_loop(points) for _ in range(loops)]))


def scaled(host_s: float, before: float, after: float) -> float:
    """Host seconds at reference speed, from the calibrations around them."""
    return host_s * REFERENCE_CALIBRATION_S / ((before + after) / 2)


class Sampler:
    """Samples host speed while a call runs in other processes.

    Calibrating before and after a call misses the host's changes of
    speed within it, and calibrating on idle CPUs misses what sharing
    them costs.  So while the block runs, a thread of this process runs a
    tenth of the loop about ten times a second, timed by its own CPU
    time: waiting for a CPU or for the interpreter lock does not count,
    but a CPU slowed by the host or by the work beside it does.  The
    block costs about one percent of one CPU.
    """

    SHARE = 10              # the loop over SHARE samples
    PERIOD_S = 0.1

    def __init__(self) -> None:
        points = np.random.default_rng(0).random((1500, 3))
        self._points = points[:len(points) // self.SHARE]
        self._samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            start = thread_time()
            _loop(self._points)
            self._samples.append((thread_time() - start) * self.SHARE)
            if self._stop.wait(self.PERIOD_S):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def calibration_s(self) -> float:
        """The median sample: the loop's time at the block's usual speed."""
        return float(np.median(self._samples))
