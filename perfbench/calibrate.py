"""Calibration of wall times against a fixed pure-Python loop.

The host's speed drifts by tens of percent, within a run as well as
between runs.  While a benchmark run measures, a ``Sampler`` times
``loop()`` every ``INTERVAL_S`` seconds from a SIGALRM handler, which
pauses the operation in progress (or, where the work runs in child
processes, in bursts between operations).  Each operation is reported as

    (raw - time spent in the handler) * REF_S / median(loop times during it)

(the ``MIN_SAMPLES`` nearest samples when fewer fell inside it):
calibrated seconds, i.e. seconds on a host that runs the loop in
``REF_S``.  The loop shares no code with ``octhls`` or numpy.
"""

from __future__ import annotations

import signal
import statistics
import time

#: loop time taken as the reference host's (2-core Intel Xeon KVM guest, Python 3.11.7); see README.md
REF_S = 0.0200
INTERVAL_S = 0.25
#: loops in one burst, and the samples an interval is calibrated by at least
BURST, MIN_SAMPLES = 3, 6

_N = 100_000


def loop():
    """Time one pass of a fixed integer/float/list loop; returns seconds."""
    start = time.perf_counter()
    acc, x, buf = 0, 0.5, []
    for i in range(_N):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        x = x * 0.999 + (acc & 7)
        if i & 63 == 0:
            buf.append(x)
    return time.perf_counter() - start


class Sampler:
    """Collects (start, seconds) loop samples on the ``time.perf_counter`` clock.

    With ``timer`` set, ``loop()`` is also timed every ``INTERVAL_S`` of
    wall time from a SIGALRM handler while the context is open.  The
    handler runs in the main thread between bytecodes, so an operation
    running in this process is paused while a sample is taken.  Work done
    in child processes is not paused, and sampling beside it would slow
    both; it is calibrated by ``burst()`` calls between operations.
    """

    def __init__(self, timer=True):
        self.samples = []
        self._timer = timer
        self._previous = None

    def __enter__(self):
        if self._timer:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append((start, loop()))

    def burst(self):
        """Take ``BURST`` samples now."""
        for _ in range(BURST):
            self._tick(None, None)

    def paused(self, t0, t1):
        """Seconds spent sampling between t0 and t1."""
        return sum(d for s, d in self.samples if t0 <= s < t1)


def calibrated(seconds, t0, t1, samples):
    """Calibrated seconds of work measured between t0 and t1, given (start, loop seconds) samples."""
    inside = [d for s, d in samples if t0 <= s < t1]
    if len(inside) < MIN_SAMPLES:
        mid = 0.5 * (t0 + t1)
        inside = [d for _, d in sorted(samples, key=lambda sd: abs(sd[0] - mid))[:MIN_SAMPLES]]
    return seconds * REF_S / statistics.median(inside)
