"""Host-speed calibration: a fixed pure-Python kernel timed next to the work.

On a shared 2-core host the same predict loop ran 15% to 25% apart in speed
from one process to the next, and the speed moves within a process too,
while CPU time tracks wall time: the host itself changes speed.  A kernel
that does the same kind of work as the program (allocating small objects,
copying dicts, chasing pointers through a heap larger than the caches) slows
down with it.  Every timed interval is therefore reported in *reference
milliseconds*: its wall time times ``REF_KERNEL_MS`` over the kernel time
measured around it.  perfbench/README.md gives the spreads with and without.

The kernel runs before each operation and after the last one.  Long
operations (set-up, training, certification) also get samples from inside,
every ``INTERVAL_S`` from a SIGALRM handler, and are followed stretch by
stretch; kernel time that falls inside an operation is subtracted from it.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import time
from array import array

# mean kernel time on the host the benchmark was written on (2 cores,
# Python 3.11); a constant, so reference ms are comparable between runs
REF_KERNEL_MS = 1.4
INTERVAL_S = 0.05
_HEAP_NODES = 1 << 17
_CHASE_STEPS = 12_000
_CHURN_NODES = 120
_CHURN_ROUNDS = 18


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c


def _make_heap(seed: int = 1) -> list:
    rng = random.Random(seed)
    heap = [_Node(i, None, None) for i in range(_HEAP_NODES)]
    for node in heap:
        node.b = heap[rng.randrange(_HEAP_NODES)]
    return heap


def _kernel(heap: list) -> int:
    """Object churn and dict copies, then a pointer chase through ``heap``."""
    nodes = {i: _Node(i, (i, i + 1), str(i)) for i in range(_CHURN_NODES)}
    acc = 0
    for _ in range(_CHURN_ROUNDS):
        copy = dict(nodes)
        for node in copy.values():
            acc += node.a + len(node.b) + len(node.c)
        acc += len(" ".join(node.c for node in copy.values()))
        acc += len(sorted(copy, key=lambda k: -k))
    node = heap[0]
    for _ in range(_CHASE_STEPS):
        node = node.b
        acc += node.a
    return acc


class Calibrator:
    """Kernel samples over a run, and the intervals they normalize."""

    def __init__(self, alarm: bool = True) -> None:
        self._alarm = alarm
        self._heap = _make_heap()
        self.start = array("d")
        self.end = array("d")
        self._busy = False
        self._previous_handler = None

    def sample(self) -> int:
        """Run the kernel once; the index of the new sample.

        The collector is off meanwhile: a collection of the program's heap
        started by the kernel's allocations would be charged to the kernel.
        """
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _kernel(self._heap)
            t1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.start.append(t0)
        self.end.append(t1)
        return len(self.start) - 1

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def __enter__(self) -> "Calibrator":
        for _ in range(3):  # warm the kernel's code and heap
            _kernel(self._heap)
        if self._alarm:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        if self._alarm:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)

    def interval(self, t0: float, t1: float, first: int, last: int) -> tuple[float, float]:
        """(raw s, reference s) of the interval [t0, t1].

        ``first`` is the sample taken just before it and ``last`` the one
        just after; samples in between ran inside it, from the alarm, and
        cut it into stretches.  Each stretch is scaled by the mean of the
        two samples around it, so a speed change inside a long operation is
        followed rather than averaged over.
        """
        raw = ref = 0.0
        begin = t0
        for i in range(first + 1, last + 1):
            stop = t1 if i == last else self.start[i]
            kernel_ms = (self.end[i - 1] - self.start[i - 1]
                         + self.end[i] - self.start[i]) * 500.0
            raw += stop - begin
            ref += (stop - begin) * REF_KERNEL_MS / kernel_ms
            begin = self.end[i]
        return raw, ref

    @contextlib.contextmanager
    def sampling(self, inside: bool = True):
        """Alarm samples during the block, if ``inside`` and the alarm is on."""
        armed = inside and self._alarm
        if armed:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            if armed:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def timed(self, fn):
        """Run ``fn`` between two samples, with the alarm sampling inside it;
        (result, raw s, reference s)."""
        first = self.sample()
        with self.sampling():
            t0 = time.perf_counter()
            result = fn()
            t1 = time.perf_counter()
        last = self.sample()
        return (result, *self.interval(t0, t1, first, last))

    def mean_kernel_ms(self) -> float:
        n = len(self.start)
        return sum(self.end[i] - self.start[i] for i in range(n)) * 1e3 / max(n, 1)
