"""Machine-speed probe: turns measured seconds into reference seconds.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, wall and CPU time alike.  A fixed
pure-Python kernel, run every ``INTERVAL_S`` seconds from a ``SIGALRM``
handler while the items run, measures that speed as it changes.  An
item's reference time is its measured time (kernel time excluded) times
``REFERENCE_S`` over the median kernel time sampled during the item and
within ``WINDOW_S`` of it.  The kernel never touches the library, so a
faster library shows in full while a slower host cancels out.

``REFERENCE_S`` is the kernel's median time on the host where the
benchmark was defined (2 vCPUs, CPython 3.11), so reference seconds read
close to that host's typical seconds.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.005
INTERVAL_S = 0.05
WINDOW_S = 0.2
KERNEL_ROUNDS = 6000


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Fixed interpreter work of the library's kind: small tuples,
    frozensets, dict lookups and a keyed sort.  (A kernel of integer
    arithmetic alone tracked the library's speed less closely.)"""
    table = {}
    acc = 0
    for i in range(rounds):
        key = (i & 31, i >> 5 & 7, i % 13)
        table[key] = len(frozenset(key))
        acc += table.get((i & 31, 0, 0), 1)
    return acc + len(sorted(table, key=lambda k: (k[2], k[0])))


class Probe:
    """Speed samples ``(time, kernel seconds)`` and the total time spent
    sampling, which callers subtract from what they measure."""

    def __init__(self):
        self.samples = []
        self.paused = 0.0
        self.sampling = False

    def sample(self, *_signal_args) -> None:
        # A signal that arrives while the kernel runs is dropped rather than
        # nested, so no sampling time is counted twice.  The collector stays
        # off while the kernel runs: its objects are all freed before it
        # returns, so the library's collections run at the same points as
        # without sampling.
        if self.sampling:
            return
        self.sampling = True
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        kernel_start = perf_counter()
        kernel()
        end = perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(((kernel_start + end) / 2, end - kernel_start))
        self.paused += perf_counter() - start
        self.sampling = False

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over ``[start, end]``."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:  # fall back on the samples closest in time
            mid = (start + end) / 2
            near = [s for _, s in sorted(self.samples, key=lambda ts: abs(ts[0] - mid))[:5]]
        return REFERENCE_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(s for _, s in self.samples)
