"""Speed calibration: express a timing at a fixed reference CPU speed.

On a small shared VM the same pure-Python work runs 20-40% slower from
one second to the next, and the two vCPUs drift independently of each
other, so wall-clock times of whole passes spread more between runs
than any useful regression bound.  A :class:`Calibrator` interrupts its
process every :data:`INTERVAL_S` of wall time (``SIGALRM``) and, inside
the signal handler, times one fixed chunk of interpreter work.  The
chunks run on the same vCPU as the measured code, interleaved with it,
so they see the same slowdowns.

:meth:`Calibrator.normalise` turns a wall-clock interval into the time
the measured code would have taken if every chunk had taken
:data:`REFERENCE_S`: the chunks' own time is subtracted and the rest is
scaled by ``REFERENCE_S / median(chunk time)``.  A faster program reads
lower in proportion; only the machine's speed drift is divided out.
The handler runs between bytecodes of the main thread, so it samples
while Python code runs; a long call into C (an LP solve) delays it.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Wall-clock period between two chunks.
INTERVAL_S = 0.025
#: Loop count of one chunk (about 1 ms of work on a 2-vCPU Xeon VM).
CHUNK_SIZE = 800
#: Nominal duration of one chunk: the speed every timing is scaled to.
REFERENCE_S = 0.001
#: Fewest chunks a normalised interval is based on.
MIN_SAMPLES = 3


def chunk(n: int = CHUNK_SIZE) -> float:
    """Fixed work shaped like an event simulator: heap, dict, floats."""
    heap: list = []
    totals: dict = {}
    acc = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        totals[i & 127] = totals.get(i & 127, 0.0) + i * 0.5
    while heap:
        acc += heapq.heappop(heap)[0]
    return acc


class Calibrator:
    """Interleaved speed samples: ``(finished_at, duration)`` per chunk."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        chunk()
        ended = time.perf_counter()
        self.samples.append((ended, ended - started))

    def start(self) -> Calibrator:
        chunk()  # warm the chunk's code path before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> Calibrator:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def speed(self, start: float, end: float) -> float:
        """Median chunk time over [start, end] relative to :data:`REFERENCE_S`
        (2.0 = the machine ran at half the reference speed).

        Uses the chunks that ran inside the interval, or the
        :data:`MIN_SAMPLES` nearest to its middle when fewer did.
        """
        basis = [d for t, d in self.samples if start <= t <= end]
        if len(basis) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            basis = [d for _, d in nearest[:MIN_SAMPLES]]
        if not basis:
            raise RuntimeError("no calibration samples were taken")
        return statistics.median(basis) / REFERENCE_S

    def normalise(self, start: float, end: float) -> float:
        """Seconds of ``perf_counter`` interval [start, end] at reference
        speed, less the time this process spent in chunks."""
        busy = sum(d for t, d in self.samples if start <= t <= end)
        return (end - start - busy) / self.speed(start, end)
