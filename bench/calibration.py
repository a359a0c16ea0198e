"""Host-speed calibration for the benchmark's time samples.

The speed of each vCPU of a shared 2-core host drifts by up to 2x, in
episodes from seconds to minutes, so the median pass of a 40 s run
moved by 23-37 % between runs.  Right before each time sample, the
same process times ``KERNEL_LOOPS`` steps of first-order dual-number
arithmetic on a small ``__slots__`` class -- the kind of work paracr's
jets do, written here so it never changes with paracr -- with the
garbage collector off.  ``quiet`` divides a sample by that time and
multiplies by the kernel's time on a quiet host (``QUIET_S``, a 2.0 GHz
Xeon vCPU), so a sample reads as seconds on a quiet host.  Of the
kernels tried (a float loop, this one, a NumPy reduction), the median
of samples scaled by this one moved least between 40 s windows of the
same work: 3.4 % against 15.6 % unscaled.
"""

import gc
import time

KERNEL_LOOPS = 40_000
QUIET_S = 0.031


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __mul__(self, other):
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    def __add__(self, other):
        return _Dual(self.a + other.a, self.b + other.b)


def kernel_seconds():
    """Wall time of the calibration kernel, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = _Dual(1.0001, 1.0)
        acc = _Dual(0.0, 0.0)
        for i in range(KERNEL_LOOPS):
            acc = acc + x * _Dual(i * 1e-6, 1.0)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def quiet(seconds, kernel):
    """A time sample rescaled to quiet-host speed."""
    return seconds * QUIET_S / kernel
