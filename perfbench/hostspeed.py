"""Host-speed normalisation of measured times.

The benchmark host is a shared VM whose speed changes by up to ~2x within
seconds and from minute to minute, for pure-Python code as much as for the
program.  Raw wall times then measure the neighbours, not the program.

``SpeedClock`` times a stretch of code (one operation, one set-up probe) and
samples the host's speed while it runs: a ``SIGALRM`` timer interrupts the
code every ``INTERVAL_S`` and runs a fixed calibration chunk, whose CPU time
says how slow the host is at that moment (CPU time, so that waiting for a
core does not count as slowness).  Each
stretch between two samples is scaled by ``REF_CHUNK_S`` over the local
chunk time, and the time spent in the chunks is left out.  The result is the
stretch's time on a host where the chunk takes ``REF_CHUNK_S``, which is
about its time on this host when it is quiet.

Usage::

    clock = SpeedClock()
    clock.start()
    ...                      # the code to time (main thread only)
    raw_s, norm_s = clock.stop()
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# CPU time of one calibration chunk on a quiet host of the baseline's class
# (see baseline.json); only the scale of the normalised times depends on it.
REF_CHUNK_S = 0.5e-3
# Chunk times are smoothed over this many neighbouring samples.
SMOOTH = 5

_VEC = tuple(i / 4.0 - 1.0 for i in range(9))


def _step(a: float, b: float) -> float:
    return a * b + 0.5 * a - b / (1.0 + a * a)


def calibration_chunk() -> float:
    """Fixed interpreter work: calls, float arithmetic, small sequences.
    Pure Python, so that a set-up probe can use it before importing numpy,
    and independent of the program, whose speed-ups never change it."""
    v, s = _VEC, 0.0
    for _ in range(150):
        v = tuple(x * 0.99 + 0.01 for x in v)
        for i in range(12):
            s += _step(i * 0.1, s * 1e-3)
    return s + v[0]


class SpeedClock:
    def __init__(self):
        self.samples: list = []  # (start, chunk CPU time, chunk wall time)
        self._previous = None

    def _sample(self, *_args) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        calibration_chunk()
        self.samples.append((start, time.thread_time() - cpu,
                             time.perf_counter() - start))

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple:
        """Return (raw seconds, normalised seconds) since ``start``; both
        leave out the time spent in calibration chunks."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        cpu = [s[1] for s in self.samples]
        half = SMOOTH // 2
        raw = norm = 0.0
        for i, (at, _, wall) in enumerate(self.samples[:-1]):
            stretch = self.samples[i + 1][0] - at - wall
            local = statistics.median(cpu[max(0, i - half):i + half + 1])
            raw += stretch
            norm += stretch * REF_CHUNK_S / local
        return raw, norm
