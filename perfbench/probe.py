"""Machine-speed probe for end-to-end times on a machine whose speed drifts.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.0 GHz), the same code
ran up to 1.8x slower in phases lasting seconds to minutes.
CPU time grew with wall time in those phases, so the process was slowed by
other tenants' load rather than descheduled, and neither clock removes it.
The probe times a fixed numpy kernel every INTERVAL_S from SIGALRM, in the
measuring process, and `seconds` rescales an interval by the speed the probe
saw around it: a repeated item then varies by about 4% instead of 10-23%.
"""

import bisect
import contextlib
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# the kernel's duration in that machine's fast phase; it only sets the unit,
# so that probe-normalized seconds read as seconds on that machine unloaded
REF_PROBE_S = 3.0e-4
# intervals holding fewer samples (1 s) take this many around their midpoint
MIN_SAMPLES = 20


class SpeedProbe:
    """Context manager that samples the probe kernel while it is entered."""

    def __init__(self):
        self._z = np.exp(2j * np.pi * np.arange(1024) / 1024)
        self._kernel()  # first call plans the FFT
        self.starts = []
        self.durations = []

    def _kernel(self):
        z = self._z
        for _ in range(10):
            np.fft.fft(z)
            w = (z - 0.3) / (1.0 - 0.3 * z)
            np.sum(np.abs(w) ** 2)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self._kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """Stop sampling, e.g. while a child process runs on the other core,
        where the probe would measure the contention it causes itself."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def seconds(self, start, end):
        """Probe-normalized length of the perf_counter interval [start, end].

        The probe's own time inside the interval is taken off, and the rest
        is scaled by the mean of REF_PROBE_S / duration over the samples in
        the interval, which weights each stretch of time by the speed the
        probe measured in it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        own = sum(self.durations[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("no probe samples were taken")
        speed = sum(REF_PROBE_S / d for d in window) / len(window)
        return (end - start - own) * speed
