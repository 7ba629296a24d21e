"""Host-speed calibration.

On a virtual machine shared with other tenants, the same single-threaded
Python code runs up to twice as slowly for fractions of a second to minutes
at a time, and a run of the benchmark cannot outlast those states. So while
an execution sets up and while it makes its timed call, a SIGALRM handler
times a small fixed kernel every INTERVAL_S. The kernel is pure Python
(calls, float arithmetic, float formatting, list work), the kind of work the
package spends its time on; it does not touch the package, so a change to
the package does not change it. It is timed in thread CPU time, so that a
pool worker or another process holding the CPU does not count as a slow host.

Each sample gives a speed factor, REFERENCE_S over the kernel's time: 1 on
the reference host, below 1 while the host is slower. run.py multiplies the
times it reports by the mean factor of the interval they were measured in,
which gives each as it would read on the reference host. The handler's own
time is taken out of the measured times first.
"""

from __future__ import annotations

import signal
import statistics
import time

# A fixed reference: about the kernel's CPU time on a 2-vCPU Intel Xeon virtual
# machine under its usual load from other tenants.
REFERENCE_S = 0.00055
INTERVAL_S = 0.05
ROUNDS = 150


def _kernel() -> int:
    total = 0
    values = []
    for i in range(ROUNDS):
        x = (i * 0.37 + 1.0) / (i + 3.0)
        values.append(x)
        total += len(f"{x:.17g}")
        total += sum(j * j % 7 for j in range(8))
    values.sort()
    return total


def kernel_seconds() -> float:
    """The kernel's thread CPU time, in seconds."""
    t0 = time.thread_time()
    _kernel()
    return time.thread_time() - t0


class Sampler:
    """Samples the host speed every INTERVAL_S of wall time from a SIGALRM
    handler, between ``start`` and ``stop``. ``take`` closes an interval."""

    def __init__(self):
        self.speeds = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.speeds.append(REFERENCE_S / max(kernel_seconds(), 1e-9))
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self):
        """(mean speed factor, seconds spent in the handler, number of
        samples) since the last call. An interval too short for a sample gets
        one sample now, whose time is not in it."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        speeds, spent = self.speeds, self.spent
        self.speeds, self.spent = [], 0.0
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        if not speeds:
            speeds = [REFERENCE_S / max(kernel_seconds(), 1e-9)]
        return statistics.fmean(speeds), spent, len(speeds)
