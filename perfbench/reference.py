"""A fixed reference kernel that measures the machine's current speed.

On a shared machine, other tenants slow every process by up to about 1.5x
for tens of seconds at a time. The kernel below (strided einsum contractions
in the shape of a small 3x3x3 convolution, as the seed engine computes them)
slows by nearly the same factor, so the benchmark times each sample in
reference seconds: its wall seconds over the reference kernel time measured
just before it. It belongs to the benchmark and never changes with the
program under test.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

# one reference second is this many kernel runs: about one wall second on an
# uncontended 2-vCPU Xeon VM
RUNS_PER_REF_SECOND = 40


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((8, 8, 10, 18, 18))
        self.w = rng.standard_normal((8, 8, 3, 3, 3))
        self.out = np.empty((8, 8, 8, 16, 16))
        self.kernel_seconds = []

    def seconds(self):
        """Wall seconds of one kernel run."""
        t0 = time.perf_counter()
        self.out.fill(0.0)
        for dt, dh, dw in itertools.product(range(3), repeat=3):
            xs = self.x[:, :, dt:dt + 8, dh:dh + 16, dw:dw + 16]
            self.out += np.einsum("ncthw,oc->nothw", xs, self.w[:, :, dt, dh, dw])
        seconds = time.perf_counter() - t0
        self.kernel_seconds.append(seconds)
        return seconds

    def ref_seconds(self, fn):
        """Run fn(); returns (its result, wall seconds, reference seconds)."""
        kernel = self.seconds()
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        return result, seconds, seconds / (RUNS_PER_REF_SECOND * kernel)
