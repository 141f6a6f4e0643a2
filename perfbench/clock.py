"""Operation timing corrected for the host's momentary speed.

On the shared host this benchmark was built on, the same computation runs
up to 1.8x slower for stretches of seconds to minutes, because of load
outside the machine; a whole run can fall into a slow stretch, so raw wall
times swing between runs by more than any useful regression bound.

The benchmark therefore times two fixed pure-Python calibration kernels
between consecutive operations: rational multiply-adds into a dict with
tuple keys (like fglog's inner loops) and an integer loop. An operation's
slowdown is the geometric mean, over the two kernels, of the median kernel
time measured just before and just after it divided by that kernel's
REFERENCE time; its corrected time is its wall time over its slowdown:
the seconds it takes at the reference speed, that of the fast state of a
2-core Intel Xeon host. The kernels do not call fglog, so a change to
fglog moves corrected times exactly as it moves wall times at constant
host speed. Raw wall times are reported alongside.
"""

import math
import statistics
from fractions import Fraction
from time import perf_counter

REPEATS = 3


def rational_kernel():
    acc = {}
    q = Fraction(3, 7)
    for i in range(1500):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + q * Fraction(i + 1, 3)
    return acc


def integer_kernel():
    total = 0
    for i in range(60000):
        total += i * i % 7
    return total


KERNELS = ((rational_kernel, 0.0058), (integer_kernel, 0.0045))


def calibrate():
    """Each kernel's time over its reference, median of REPEATS runs."""
    ratios = []
    for kernel, reference in KERNELS:
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        ratios.append(statistics.median(times) / reference)
    return ratios


class Timer:
    """Times calls back to back, calibrating between each two."""

    def __init__(self):
        self._last = calibrate()

    def measure(self, fn):
        """(fn's result or the exception it raised, wall seconds,
        corrected seconds)."""
        before = self._last
        start = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # the caller reports it with the timing
            out = exc
        wall = perf_counter() - start
        self._last = calibrate()
        slowdown = math.prod((b + a) / 2 for b, a in zip(before, self._last))
        return out, wall, wall / math.sqrt(slowdown)
