"""Machine-speed probe: a fixed loop timed every 0.1 s of a run.

The reference machine is a shared VM whose neighbours slow the same code by
up to 2x, for stretches from under a second to minutes: often longer than a
run. The probe samples that slowdown. A real-time interval timer raises
SIGALRM every ``every_s`` seconds, and the handler times a fixed arithmetic
loop that uses no jetcool code, so a change to jetcool cannot move it.
Python runs the handler between bytecodes, so probes land inside requests
too (after any C call in progress returns); ``spent`` lets the client take
the probes' time back out of each request.

The median probe of a run measures how fast the machine ran over the run, as
the median latencies measure jetcool. ``factor`` scales a run's times to the
probe's median on the reference machine (``REFERENCE_S``).
"""

from __future__ import annotations

import signal
import statistics
import time

# median probe on the reference machine (2-vCPU x86_64 VM, Python 3.11.7)
# when its neighbours are quiet
REFERENCE_S = 1.5e-3

_LOOP = 20_000


def _loop_s() -> float:
    t0 = time.perf_counter()
    total = 0.0
    for i in range(_LOOP):
        total += (i % 7) * 0.5
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the probe loop on every SIGALRM between ``start`` and ``stop``."""

    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.times: list[float] = []
        self.spent = 0.0        # seconds spent in the handler so far

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:          # a run shorter than one interval
            self.times.append(_loop_s())

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.times.append(_loop_s())
        self.spent += time.perf_counter() - t0

    @property
    def median_s(self) -> float:
        return statistics.median(self.times)

    def factor(self) -> float:
        """Scale from this run's machine speed to the reference speed."""
        return REFERENCE_S / self.median_s
