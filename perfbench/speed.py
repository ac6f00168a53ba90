"""Machine-speed calibration: timings from a shared host, made comparable.

On a host shared with other tenants the speed of the same single-threaded
Python code drifts by up to 1.8x within minutes and swings within a second,
so two runs of the same code a few minutes apart can differ by far more than
any bound worth having.  The drift hits all pure-Python work: a fixed kernel
of stdlib operations slows down and speeds up with the program.  Over four
minutes in which both moved by 1.6x, their ratio held within a few percent
in every 10-second window.

So while the worker answers queries, an interval timer interrupts it every
``INTERVAL_S`` seconds and runs one short chunk of that kernel (``Meter``).
The chunks are a uniform sample of the host's speed over time, taken inside
long queries as well as between short ones.  A query's time, minus the
chunks that ran inside it, is multiplied by ``(REF_CHUNK_S / c) ** ALPHA``,
where ``c`` is the median chunk time around it: the time the query would take
on a host where one chunk takes ``REF_CHUNK_S``.

The kernel reacts to a busy host more than the program does.  Over passes of
the same queries in one process, while the median chunk time moved by up to
1.8x, the program's time moved as the 0.5th to 1.2th power of it, depending
on the workload and the metric (wall time, median or 90th-percentile query,
the long queries).  ``ALPHA = 0.75`` left the least variation over all of
them; a full correction (1.0) overshoots the short queries of cone-certify,
whose time moved as only the 0.5th power.

The kernel uses what the program spends its time on (dicts keyed by small
tuples, ``Fraction`` arithmetic, sorting) and imports nothing from
``detring``, so no change to the program can make it faster or slower except
through the state it leaves in the process.  Chunks run with the garbage
collector off, so the size of the program's heap does not reach them.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# One chunk's time, run between queries on a quiet 2-vCPU host with Python
# 3.11: the speed every scaled time refers to.  Chunks run inside the
# program's queries take longer, and a busy host stretches them further.
REF_CHUNK_S = 0.00055
ALPHA = 0.75
ROUNDS = 400
# One chunk every 10 ms costs the worker about 5-10% of its time.
INTERVAL_S = 0.01
# A query is scaled by the median of the chunks that ran from this long
# before it started to this long after it ended.
WINDOW_S = 0.25


def kernel(rounds=ROUNDS):
    """Fixed pure-Python work; the same every call."""
    table = {}
    total = Fraction(0)
    for i in range(rounds):
        key = (i % 29, i % 31, i % 7)
        table[key] = table.get(key, 0) + i
        if i % 4 == 0:
            total += Fraction(i % 11 + 1, i % 5 + 2)
    return len(sorted(table.items())), total


class Meter:
    """Chunk times, with the moment each ran, over one worker's life."""

    def __init__(self):
        self.mid = []  # perf_counter() at each chunk's midpoint, increasing
        self.dur = []  # each chunk's seconds
        self.spent = [0.0]  # spent[k]: seconds in the first k chunks

    def chunk(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.mid.append((t0 + t1) / 2)
        self.dur.append(t1 - t0)
        self.spent.append(self.spent[-1] + t1 - t0)
        return t1 - t0

    def _on_alarm(self, signum, frame):
        self.chunk()

    def start(self):
        """Run a chunk every INTERVAL_S seconds, interrupting whatever runs."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def run_for(self, seconds):
        """Run chunks back to back for about ``seconds`` seconds."""
        spent = 0.0
        while spent < seconds:
            spent += self.chunk()

    def busy(self, start, end):
        """Seconds of chunks that ran inside [start, end]."""
        lo = bisect.bisect_left(self.mid, start)
        hi = bisect.bisect_right(self.mid, end)
        return self.spent[hi] - self.spent[lo]

    def chunk_time(self, start=None, end=None):
        """Median chunk time within WINDOW_S of [start, end]; all chunks if no span."""
        if start is None:
            window = self.dur
        else:
            lo = bisect.bisect_left(self.mid, start - WINDOW_S)
            hi = bisect.bisect_right(self.mid, end + WINDOW_S)
            window = self.dur[lo:hi]
        if not window:
            raise ValueError("no calibration chunk near the span")
        return statistics.median(window)

    def scale(self, seconds, start=None, end=None):
        """``seconds`` measured over [start, end], at the reference speed."""
        return seconds * (REF_CHUNK_S / self.chunk_time(start, end)) ** ALPHA
