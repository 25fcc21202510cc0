"""Machine-speed reference: op times expressed at one nominal machine speed.

On a shared host the CPU time of one fixed piece of Python work drifts by up
to 1.7x, within seconds, as other tenants load the same cores.  So
``Pace`` times ``reference()``, a fixed pure-Python task that runs no kmon
code, on a process CPU-time timer: every ``REF_EVERY_S`` of CPU time a
SIGPROF handler runs it, inside a long op as well as between ops.  Its own
time is taken out of the clock the ops are timed with (``Pace.clock``), and
``Pace.scale`` turns an interval of that clock into time at the nominal
speed: the interval times ``REF_NOMINAL_MS`` over the median reference time
taken during it and the two before and after it.  A time scaled so reads as
on a machine where ``reference()`` takes ``REF_NOMINAL_MS``.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import signal
import statistics
from time import thread_time

REF_EVERY_S = 0.05
# about what reference() takes on a 2-vCPU VM with CPython 3.11.7
REF_NOMINAL_MS = 2.8
REF_ITERATIONS = 1000
REF_SCAN_SIDE = 7
NEIGHBOURS = 2


class _Pt:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def add(self, other):
        return _Pt(self.a + other.a, self.b + other.b)


def reference() -> None:
    """A fixed task mixing the kinds of work kmon does: dict, tuple, object
    and sort work, then a scan over integer points like a completion search."""
    table: dict = {}
    acc = _Pt(0, 0)
    for i in range(REF_ITERATIONS):
        key = ((i * 7919) % 211, i & 7)
        table[key] = table.get(key, 0) + i
        acc = acc.add(_Pt(i & 3, key[0]))
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    frozenset(k for k, _ in ranked[: REF_ITERATIONS // 4])
    rows = ((1, 2, 0, 3), (0, 1, 1, 2), (2, 0, 1, 1))
    for fill in itertools.product(range(REF_SCAN_SIDE), repeat=3):
        point = [5, 0, 0, 0]
        for i, v in zip((1, 2, 3), fill):
            point[i] = v
        point = tuple(point)
        all(sum(a * x for a, x in zip(row, point)) % 3 for row in rows)


class Pace:
    def __init__(self):
        self.at: list[float] = []  # clock() when each reference ran
        self.took: list[float] = []  # its thread CPU seconds
        self.spent = 0.0  # thread CPU seconds spent in the handler so far
        self.busy = False

    def sample(self, *_) -> None:
        """Time one reference(); also the SIGPROF handler."""
        if self.busy:
            return
        self.busy = True
        enter = thread_time()
        collecting = gc.isenabled()
        gc.disable()
        t0 = thread_time()
        reference()
        took = thread_time() - t0
        if collecting:
            gc.enable()
        self.at.append(enter - self.spent)
        self.took.append(took)
        self.spent += thread_time() - enter
        self.busy = False

    def start(self) -> None:
        self.sample()  # the first call runs slower than the rest
        self.at.clear()
        self.took.clear()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, REF_EVERY_S, REF_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def clock(self) -> float:
        """Thread CPU seconds, less the time spent on references."""
        while True:
            spent = self.spent
            now = thread_time()
            if spent == self.spent:  # no reference ran in between
                return now - spent

    def scale(self, start: float, end: float) -> float:
        """Nominal-speed seconds of the clock interval [start, end]."""
        lo = max(0, bisect.bisect_left(self.at, start) - NEIGHBOURS)
        hi = bisect.bisect_right(self.at, end) + NEIGHBOURS
        return (end - start) * REF_NOMINAL_MS / 1e3 / statistics.median(self.took[lo:hi])

    def summary(self) -> dict:
        ms = [t * 1e3 for t in self.took]
        return {"median": statistics.median(ms), "min": min(ms), "max": max(ms), "count": len(ms)}
