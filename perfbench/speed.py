"""Host speed, sampled while the benchmark runs.

The benchmark was written on a shared 2-vCPU virtual machine whose speed
changed by up to 1.8x from one second to the next, independently on each
vCPU.  A ``Sampler`` measures that speed in the benchmark's own thread:
an interval timer interrupts the process every ``period`` seconds, and
the signal handler times two fixed kernels that do not call delayedcsit:

- ``python_kernel``: dict updates with complex values and integer gcds,
  like the exact calculators;
- the kernel of ``numpy_kernel()``: products, Cholesky factors and
  log-determinants of small complex matrices, like the ledger's and the
  rate simulation's small linear algebra.

A sample's speed is ``(1 - s) * NOMINAL_PYTHON_MS / python_ms
+ s * NOMINAL_NUMPY_MS / numpy_ms``, where ``s`` is the workload's numpy
share; speed 1 is the fast state of the machine the benchmark was
written on.  A time multiplied by the mean speed of the samples taken
while it ran is a time *at nominal speed*: it stays put when the host
slows down, and halves when the package gets twice as fast.

The handler's own time is kept out of every measurement: ``clock`` and
``cpu_clock`` are the process's clocks minus the time spent in the
handler.  This module imports only the standard library, so the set-up
probe can import it before numpy.
"""

import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from math import gcd

NOMINAL_PYTHON_MS = 0.18
NOMINAL_NUMPY_MS = 0.27


def python_kernel():
    acc = {}
    for i in range(300):
        acc[i % 37] = acc.get(i % 37, 0j) + complex(i, -i) * 0.5
    total = 0
    for i in range(1, 120):
        total += gcd(i * 7919, 104729 * i + 1)
    return total


def numpy_kernel():
    """Return the numpy kernel; imports numpy."""
    import numpy

    matrix = numpy.random.default_rng(2010).standard_normal((8, 16)).view(complex)
    eye = numpy.eye(8)

    def kernel():
        for _ in range(10):
            gram = matrix @ matrix.conj().T + eye
            numpy.linalg.cholesky(gram)
            numpy.linalg.slogdet(gram)

    return kernel


class Sampler:
    """Samples host speed every ``period`` seconds while active.

    ``numpy`` is the numpy kernel, needed when ``numpy_share`` is above
    0.  Each sample records the speed of each kernel on each clock.
    """

    def __init__(self, numpy_share, period, numpy=None):
        if numpy_share > 0 and numpy is None:
            raise ValueError("a numpy share needs the numpy kernel")
        self.numpy_share = numpy_share
        self.period = period
        self.numpy = numpy
        self.times = array("d")  # on ``clock``, when each sample began
        # kernel -> clock -> speeds; clock 0 is wall time, 1 is CPU time
        self.speeds = {"python": (array("d"), array("d")),
                       "numpy": (array("d"), array("d"))}
        self.stolen_wall = 0.0
        self.stolen_cpu = 0.0
        self._busy = False
        self._previous = None

    def _record(self, kernel, nominal_ms, w0, c0, w1, c1):
        wall, cpu = self.speeds[kernel]
        wall.append(nominal_ms / max((w1 - w0) * 1e3, 1e-6))
        cpu.append(nominal_ms / max((c1 - c0) * 1e3, 1e-6))

    def sample(self, *_):
        """Time the kernels once; the signal handler."""
        if self._busy:  # a signal that arrived while sampling
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        self.times.append(w0 - self.stolen_wall)
        python_kernel()
        w1, c1 = time.perf_counter(), time.process_time()
        self._record("python", NOMINAL_PYTHON_MS, w0, c0, w1, c1)
        if self.numpy is not None:
            self.numpy()
            w2, c2 = time.perf_counter(), time.process_time()
            self._record("numpy", NOMINAL_NUMPY_MS, w1, c1, w2, c2)
        self.stolen_cpu += time.process_time() - c0
        self.stolen_wall += time.perf_counter() - w0
        self._busy = False

    def clock(self):
        """``perf_counter`` without the time spent sampling."""
        while True:
            stolen = self.stolen_wall
            now = time.perf_counter()
            if stolen == self.stolen_wall:
                return now - stolen

    def cpu_clock(self):
        """``process_time`` without the time spent sampling."""
        while True:
            stolen = self.stolen_cpu
            now = time.process_time()
            if stolen == self.stolen_cpu:
                return now - stolen

    def mark(self):
        return len(self.speeds["python"][0])

    def kernel_speeds(self, mark, clock=0):
        """Mean (python, numpy) speed on ``clock`` since ``mark``."""
        if self.mark() == mark:
            self.sample()
        means = []
        for kernel in ("python", "numpy"):
            values = self.speeds[kernel][clock][mark:]
            means.append(sum(values) / len(values) if values else 0.0)
        return tuple(means)

    def speed_since(self, mark):
        """Mean host speed since ``mark``, on the wall and CPU clocks."""
        s = self.numpy_share
        return tuple((1 - s) * python + s * numpy
                     for python, numpy in (self.kernel_speeds(mark, clock)
                                           for clock in (0, 1)))

    def window_speeds(self, spans, halfwidth):
        """Mean wall-clock speed of the samples taken from ``halfwidth``
        seconds before to ``halfwidth`` seconds after each ``(start, end)``
        span on ``clock``; the nearest sample where there is none."""
        s = self.numpy_share
        python, numpy = self.speeds["python"][0], self.speeds["numpy"][0]
        n = len(python)  # samples taken while this runs are left out
        prefix = [0.0]
        for i in range(n):
            prefix.append(prefix[-1] + (1 - s) * python[i] + (s * numpy[i] if s else 0.0))
        out = []
        for start, end in spans:
            lo = bisect_left(self.times, start - halfwidth, 0, n)
            hi = bisect_right(self.times, end + halfwidth, 0, n)
            if hi == lo:
                lo = min(lo, n - 1)
                hi = lo + 1
            out.append((prefix[hi] - prefix[lo]) / (hi - lo))
        return out

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
