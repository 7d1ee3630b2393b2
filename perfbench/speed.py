"""Machine-speed probe: timings taken on a shared machine, scaled to a fixed speed.

The benchmark's cores are shared with other tenants.  Their load changes the
speed of pure-Python arithmetic by up to 1.7x, in stretches from a second to
minutes, and it slows an operation and the processor time it is charged
alike.  So the benchmark runs a short, fixed reference kernel between
operations and scales each operation's time by how fast the kernel ran just
before and after it.  The kernel is dense 256-bit complex linear algebra in
mpmath, as in skeinrep's bigfloat matrices, and uses no skeinrep code, so a
change to skeinrep cannot move it.  Of the kernels tried (also a 256-bit
complex multiply-add loop, Fraction arithmetic, an integer loop and a numpy
object-array product), it kept the ratio of operation time to kernel time
flattest between slow and fast stretches of the machine: within 2% for
construct_verify, 7% for certify_sphere and 5% for rewrite, where the raw
operation times moved by 40%.

A scaled time is the time the operation would have taken on a machine where
the kernel takes ``REFERENCE_S``: raw time * REFERENCE_S / local kernel time.
"""

from __future__ import annotations

from bisect import bisect_right
from statistics import median
from time import perf_counter

from mpmath import lu_solve, matrix, mp, mpc, mpf

# about the kernel's time on a shared 2-core virtual machine (CPython 3.11, pure-Python mpmath)
REFERENCE_S = 0.010
WINDOW = 2           # probes on each side of an interval that its scale is taken from
GAP_S = 0.1          # at most one probe per this much operation time (about 9% overhead)


def _kernel(a, b):
    with mp.workprec(256):
        for _ in range(3):
            lu_solve(a, b)


class Speed:
    """Kernel probes taken during a run, and the scale they give each interval."""

    def __init__(self):
        self.ends = []   # perf_counter() at the end of each probe, increasing
        self.times = []  # each probe's duration
        with mp.workprec(256):
            self._a = matrix([[mpc(mpf(i + 1) / (j + 2), mpf(j - i) / 7) + 3 * (i == j)
                               for j in range(5)] for i in range(5)])
            self._b = matrix([mpc(k, 1) for k in range(5)])

    def probe(self):
        start = perf_counter()
        _kernel(self._a, self._b)
        end = perf_counter()
        self.ends.append(end)
        self.times.append(end - start)

    def maybe_probe(self):
        """Probe unless the last probe ended less than GAP_S ago."""
        if not self.ends or perf_counter() - self.ends[-1] >= GAP_S:
            self.probe()

    def scale(self, start, end):
        """REFERENCE_S over the median of the WINDOW probes before ``start`` and after ``end``."""
        before = bisect_right(self.ends, start)
        after = bisect_right(self.ends, end)
        near = self.times[max(0, before - WINDOW):before] + self.times[after:after + WINDOW]
        return REFERENCE_S / median(near)

    def kernel_ms(self):
        """Median probe time of the run, to print beside the raw timings."""
        return 1000 * median(self.times)
