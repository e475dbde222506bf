"""How fast the shared host runs this process, sampled while the jobs run.

The host gives the benchmark a share of a machine it shares with others, and
that share switches within seconds: a fixed pure-Python task runs at one of
two speeds, about 1.8 times apart, and pgroups jobs slow down by about the
same factor at the same moments.  ``HostProbe`` times a short fixed task,
``probe_task``, on a wall-clock timer signal every ``interval`` seconds while
the jobs run.  ``window`` then gives, for one job, the time the probes took
from it and the host's mean speed while it ran, so that the job's time can
be subtracted clean of the probes and rescaled to a nominal host speed.

The probe task uses no pgroups code, so a change to pgroups cannot change
the rescaling.  The signal handler runs between bytecodes of the job, on the
same CPU, which is what makes its samples cover the job's own time.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Tuple

# Nominal time of one probe task.  Rescaled times are the times on a host on
# which the probe task takes this long.
REF_PROBE_S = 0.002


def probe_task() -> None:
    """Close S_6 under two generators: tuple building, hashing, set membership."""
    gens = ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0))
    seen = {(0, 1, 2, 3, 4, 5)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = tuple(g[i] for i in s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    if len(seen) != 720:
        raise RuntimeError("probe task computed a wrong group order")


class HostProbe:
    """Context manager that runs ``probe_task`` on SIGALRM every ``interval`` s."""

    def __init__(self, interval: float):
        self.interval = interval
        self.starts: List[float] = []
        self.durations: List[float] = []

    def _fire(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_task()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        self._fire(signal.SIGALRM, None)  # so that every window has a probe near it
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, t0: float, t1: float) -> Tuple[float, float]:
        """(seconds the probes took, speed) for the interval [t0, t1).

        Speed is the mean of ``REF_PROBE_S / duration`` over the probes that
        started in the interval: the share of nominal speed the host gave, as
        a time average, so net time times speed is the time at nominal speed.
        An interval too short to hold a probe takes the probe nearest to it.
        """
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        took = self.durations[i:j]
        if not took:
            mid = (t0 + t1) / 2
            near = min(range(max(0, i - 1), min(len(self.starts), i + 1)),
                       key=lambda k: abs(self.starts[k] - mid))
            return 0.0, REF_PROBE_S / self.durations[near]
        return sum(took), sum(REF_PROBE_S / d for d in took) / len(took)
