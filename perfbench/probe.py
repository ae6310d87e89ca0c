"""A fixed snippet timed every 20 ms of CPU time, to measure how much a
busy neighbour on the same core slows the program while it runs.

On a shared VM, another guest on the same physical core can slow this
process's CPU time by up to 2x, coming and going within seconds and
drifting over minutes. CPU time cannot see that (only steal is taken
out), so every pass is rescaled by the slowdown of this probe measured
during the pass. The probe is pure interpreter work on a few kilobytes
of its own objects. It neither calls filtergen nor touches the program's
data, so a change to the program leaves its time nearly alone.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
# The probe's nominal time: a rescaled time reads as the CPU seconds of a
# core on which the probe takes this long. The probe took 155-320 us on
# the 2-vCPU Xeon VM the bounds were set on, depending on its neighbour.
REFERENCE_S = 150e-6


def _snippet() -> dict:
    """Integer arithmetic, then small tuples, lists and strings in a dict.

    Of the snippets tried, this mix slowed most like the workloads did: a
    pass's CPU time went up as the probe's time to the power 1.15 on
    filter-s3 and 0.98 on disc-train-s3 (1.38 and 1.26 for the arithmetic
    alone), so dividing by the probe's slowdown leaves little of it.
    """
    x = 0
    for i in range(1000):
        x += i * i
    d = {}
    for i in range(300):
        d[(i, x)] = [i, str(i)]
    return d


class Probe:
    """Collects probe times from a SIGPROF handler while entered."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _snippet()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def slowdown(self, start: int = 0, end: int | None = None) -> float | None:
        """Median probe time over ``samples[start:end]`` per nominal probe time."""
        window = self.samples[start:end]
        return statistics.median(window) / REFERENCE_S if window else None
