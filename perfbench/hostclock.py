"""Host-speed clock: rescales measured intervals to a fixed reference speed.

On a shared host the speed of this process drifts by tens of percent within
seconds. Neighbours load the shared cores and caches, and the scheduler
records no stolen time, so a median of wall times drifts with the host
rather than with the program. While a :class:`HostClock` runs, a SIGALRM
timer times a fixed probe every PERIOD_S seconds. :meth:`HostClock.interval`
splits an interval at the probes inside it, leaves their own time out, and
rescales each piece by REFERENCE_PROBE_S over the mean duration of the probes
on either side of it. The result is the interval's length on a host where
the probe always takes REFERENCE_PROBE_S.

The probe is the benchmark's own code and never changes with cdgl, so a
change to cdgl moves scaled times exactly as it moves wall times on a
steady host.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.25
PROBE_ITERATIONS = 50_000
REFERENCE_PROBE_S = 0.003  # about the probe's time on this machine's unloaded cores


def _probe() -> int:
    acc = 0
    for k in range(PROBE_ITERATIONS):
        acc += k * k
    return acc


class HostClock:
    """Probe timings over a stretch of the run; use as a context manager."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._probing = False

    def _run_probe(self, *_signal_args) -> None:
        if self._probing:  # the timer fired inside a probe: skip, keep starts sorted
            return
        self._probing = True
        start = time.perf_counter()
        _probe()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self._probing = False

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self._run_probe)
        self._run_probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Median probe time over the reference: 1.0 on unloaded cores, higher under load."""
        durations = sorted(e - s for s, e in zip(self.starts, self.ends))
        return durations[len(durations) // 2] / REFERENCE_PROBE_S

    def interval(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds, scaled seconds) of ``[start, end]``, probe time left out of both.

        Both ends are ``time.perf_counter()`` readings taken while the clock runs.
        """
        self._run_probe()  # closes the last piece
        k = bisect.bisect_right(self.starts, start) - 1  # the last probe before start
        wall = scaled = 0.0
        t = start
        while t < end:
            piece = min(end, self.starts[k + 1]) - t
            probe_s = (self.ends[k] - self.starts[k] + self.ends[k + 1] - self.starts[k + 1]) / 2
            wall += piece
            scaled += piece * REFERENCE_PROBE_S / probe_s
            t = self.ends[k + 1]
            k += 1
        return wall, scaled
