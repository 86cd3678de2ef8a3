"""Host-speed calibration for the benchmark's end-to-end times.

The benchmark host is a share of a machine whose cores change speed by up
to 2x in episodes of a few seconds (a fixed loop of pure Python and small
NumPy calls takes anywhere from 7 to 14 ms; process CPU time grows with it,
so the core itself runs slower, not just less often).  The two cores of a
2-core host do not slow down together, so only a measurement on the core
and in the time span of the workload tells how fast the host ran it.

So, while a child runs its workload, a ``Sampler`` interrupts it every
``INTERVAL_S`` (SIGALRM; the handler runs in the main thread between
bytecodes) to time a short fixed kernel that uses NumPy and the interpreter
but nothing of anodelab.  Each timed span is then expressed in
reference-host seconds:

    normalized = (raw - time spent in the sampler) * REF_S / mean(samples)

where the samples are the kernel times taken during the span and right at
its two ends, and ``REF_S`` is the kernel's time on a quiet host.  A change
to anodelab moves a normalized time as it moves the raw time; a change of
host speed cancels.  The raw times are kept in the full result record.
"""

from __future__ import annotations

import signal
import time
from array import array
from dataclasses import dataclass

import numpy as np

REF_S = 0.002      # one kernel pass on a quiet host (2-core x86-64 VM)
INTERVAL_S = 0.1   # sampling period while a workload runs
EDGE_PASSES = 5    # kernel passes taken back to back at each span boundary

_TABLE = {i: 3 * i for i in range(256)}
_SMALL_W = np.full((6, 6), 0.1)
_BIG_X = np.linspace(0.0, 1.0, 64 * 36 * 9).reshape(64 * 36, 9)
_BIG_W = np.linspace(-1.0, 1.0, 9 * 43).reshape(9, 43)


def kernel() -> float:
    """One pass of the calibration kernel; returns its wall time.

    It mixes the three kinds of work the workloads spend their time on:
    interpreter overhead (bytecode, dict lookups, int arithmetic), small
    NumPy calls on 64x6 batches, and conv-sized arrays (an im2col-shaped
    matmul and elementwise passes over about a MB).  It creates no object
    the cyclic collector tracks, so it leaves the collector's allocation
    count, and with it when the program's own collections run, as it was."""
    t0 = time.monotonic()
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + _TABLE.get(i & 255, 0) + i) % 1000003
    a = np.ones((64, 6))
    for _ in range(200):
        a = np.tanh(a @ _SMALL_W + 0.01) * 0.9
    for _ in range(2):
        h = np.maximum(_BIG_X @ _BIG_W, 0.0)
        _ = (h * h).sum(axis=0) + h.mean()
    return time.monotonic() - t0


@dataclass(frozen=True)
class Mark:
    """A span boundary: monotonic clock and sampler time before (t0, spent0)
    and after (t1, spent1) its kernel passes."""

    t0: float
    t1: float
    spent0: float
    spent1: float


class Sampler:
    """Kernel samples, taken on a timer and at span boundaries.

    ``starts`` and ``kernels`` hold each sample's start (monotonic clock)
    and kernel seconds, in arrays so that storing them creates no tracked
    object either; ``spent`` is the running total of time spent taking
    them, which ``normalize`` subtracts from a span's raw time."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.kernels = array("d")
        self.spent = 0.0
        self._busy = False

    def _take(self) -> None:
        self._busy = True
        t0 = time.monotonic()
        k = kernel()
        self.starts.append(t0)
        self.kernels.append(k)
        self.spent += time.monotonic() - t0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        # An alarm during a boundary pass would time a kernel inside a
        # kernel and count its time twice; that sample is simply skipped.
        if not self._busy:
            self._take()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Mark:
        """Take the boundary samples of a span: a span runs from the end of
        one mark to the start of the next."""
        t0, spent0 = time.monotonic(), self.spent
        for _ in range(EDGE_PASSES):
            self._take()
        return Mark(t0, time.monotonic(), spent0, self.spent)

    def normalize(self, start: Mark, end: Mark) -> tuple[float, float]:
        """(raw seconds, reference-host seconds) of the span between two
        marks, the time the sampler took inside it left out of both."""
        raw = (end.t0 - start.t1) - (end.spent0 - start.spent1)
        ks = [k for t, k in zip(self.starts, self.kernels)
              if start.t0 <= t <= end.t1]
        return raw, raw * REF_S / (sum(ks) / len(ks))
