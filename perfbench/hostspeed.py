"""Host speed, so that timings can be given in reference seconds.

The shared host this benchmark was written on (2 vCPUs of an Intel Xeon,
Python 3.11) runs the same code at speeds up to about 1.6x apart and
switches between them within seconds; CPU time follows wall time, so the
process is not waiting but running slower.  Raw times of identical runs
spread by 0.2 to 0.35 of their median, more than any bound a regression
check could use.

To take the host out of the timings, a fixed pure-Python kernel (integer,
``fractions.Fraction`` and dict/float operations from the standard
library; nothing of latflow) is timed every ``INTERVAL_S`` of wall time
from a SIGALRM handler while the program runs.  ``REFERENCE_S`` over a
sample's kernel time is the host's speed at that moment relative to the
reference; the mean over a span, taken at even steps of wall time, is the
speed over the span.  A time multiplied by it is in reference seconds:
what the span would have taken with the host at reference speed.  A
change to latflow moves reference seconds as it moves raw seconds, while
a change of host speed moves the kernel and the program alike and
cancels.  On that host this took the quartile spread of exact-certify
round times from 0.11 to 0.02 of their median, and that of set-up times
(sampled in the parent while the child starts) from 0.17 to 0.05.

The kernel costs about 1% of the sampled span.  Signal handlers run in
the main thread between bytecodes, so the program's results are
unchanged; interrupted system calls are retried (PEP 475), and a process
made by fork does not inherit the timer.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# the kernel's median time on the host described above, in its usual state
REFERENCE_S = 0.25e-3
_WARMUP = 50
_perf = time.perf_counter


def kernel():
    """A fixed mix of the operations latflow spends its time on."""
    s = 0
    for i in range(150):
        s = (s + i * i) % 1000003
    a = Fraction(0)
    for i in range(1, 25):
        a = (a + Fraction(i % 97, i % 13 + 1)) * Fraction(1, 2)
    d = {}
    for i in range(100):
        d[i % 17] = d.get(i % 17, 0.0) + 1.5 * i
    return s, a, d


def _rate():
    t0 = _perf()
    kernel()
    return REFERENCE_S / (_perf() - t0)


class Sampler:
    """Samples host speed while a span runs:

        sampler = Sampler()
        with sampler:
            ...timed work...
        speed = sampler.speed()

    Only one sampler may run in a process at a time, and only from the
    main thread, because it owns SIGALRM and the real-time interval timer.
    """

    def __init__(self):
        self.rates = []
        self._previous = None

    def _sample(self, signum, frame):
        self.rates.append(_rate())

    def __enter__(self):
        for _ in range(_WARMUP):
            kernel()
        self.rates = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self):
        """Mean host speed over the last span, which must be longer than
        one interval."""
        return statistics.fmean(self.rates)
