"""Machine-speed calibration for a shared, noisy machine.

On a machine shared with other tenants the speed of one core drifts by up to
2x over seconds to tens of seconds, which swamps any change in the program.
The benchmark therefore interleaves a fixed kernel that does not depend on
the program, timed between instances, and divides the timings of a stretch
of work by the kernel's mean slowdown over that stretch:

    calibrated seconds = measured seconds * KERNEL_REF_S / kernel seconds

so timings read as seconds on a machine where the kernel takes KERNEL_REF_S.
The kernel mixes the kinds of work the program does (exact rational
arithmetic, interpreter-bound tuple and dict work, small numpy eigenproblems,
row-wise numpy on a few thousand points, JSON with big integers) so that it
slows down with the program.  On a 2-core x86-64 virtual machine shared
with other tenants, five runs of the ``reduce`` workload at one seed read
27.7 to 36.6 instances/s raw and 32.6 to 34.3 calibrated.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

# The kernel's time on a 2-core x86-64 virtual machine at its usual speed
# (Python 3.11, numpy 2.4); only the unit of the calibrated numbers.
KERNEL_REF_S = 0.006

# Calibrate again after this much timed work.
INTERVAL_S = 0.25

# Bound before any tracer patches numpy, so the kernel is never counted.
_eigvalsh = np.linalg.eigvalsh

_ROWS = np.linspace(-5.0, 5.0, 6000).reshape(2000, 3)
_BIG = [str(7 ** (60 + i)) for i in range(300)]


def kernel() -> float:
    """Run the fixed calibration work once; return its duration in seconds."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(1, i)
    table: dict = {}
    for i in range(5000):
        table[(i, i & 7)] = table.get((i & 255, 0), 0) + i
    m = np.eye(3)
    for i in range(30):
        _eigvalsh(m + i)
    basis = np.array([[0.6], [0.8], [0.0]])
    for _ in range(15):
        resid = _ROWS - (_ROWS @ basis) @ basis.T
        np.einsum("ij,ij->i", resid, resid).argmin()
    sum(int(v) for v in json.loads(json.dumps(_BIG)))
    return time.perf_counter() - start


class Calibrator:
    """Kernel samples taken between instances."""

    def __init__(self):
        self.samples: list[float] = []
        self._since = 0.0

    def sample(self) -> None:
        self.samples.append(kernel())
        self._since = 0.0

    def maybe_sample(self, worked_s: float) -> None:
        """Take a sample if INTERVAL_S of work has passed since the last one."""
        self._since += worked_s
        if self._since >= INTERVAL_S:
            self.sample()

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """Slowdown over samples[start:stop]: their mean time / KERNEL_REF_S."""
        window = self.samples[start:stop]
        return sum(window) / len(window) / KERNEL_REF_S
