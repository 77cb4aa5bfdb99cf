"""Scaling timings to a fixed host speed.

The benchmark shares a few cores of a busy host, and how fast those cores
run drifts by 20-30% over minutes with what the host's other tenants do.
Two sets of ten runs of the same code gave train_k3 step-time medians whose
quartile spread was 16% and 30% of the median; no statistic over one run
cancels a drift that outlasts the run.

So the benchmark times a fixed numpy kernel between its timed windows and
scales every window by ``NOMINAL_SECONDS / kernel_seconds``, averaging the
kernel times on either side of the window. The kernel does what a step
does most, with shapes of the C7 smoke configuration: a channels-last 3x3
im2col convolution forward and backward on 4x64x64x16 float64 inputs, a
leaky ReLU, and a softmax and log over 64 channels. Over 150 s on a 2-vCPU
VM, train_k6 step times (medians of 3 steps) spread by 22% of their
median, and the same times over the bracketing kernel times by 12%; the
two correlate at 0.76.

The kernel lives in the benchmark and uses no hadaseg code, so a change to
the package leaves it alone and moves the scaled figures in full. It runs in
the benchmark's own process with the same BLAS settings.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The kernel's time on a quiet 2-vCPU VM (OpenBLAS 0.3.31, one thread), so
# scaled figures read close to wall time there.
NOMINAL_SECONDS = 0.110


class HostSpeed:
    """Times the kernel; ``window_factor`` scales the window just ended."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = np.pad(rng.standard_normal((4, 64, 64, 16)), ((0, 0), (1, 1), (1, 1), (0, 0)))
        self._w = rng.standard_normal((144, 32))
        self._z = rng.standard_normal((4, 64, 64, 64))
        self.kernel()  # first touch of the arrays
        self._last = self._seconds()

    def kernel(self) -> float:
        """One pass of the fixed work; returns a checksum of its results."""
        total = 0.0
        for _ in range(2):
            cols = sliding_window_view(self._x, (3, 3), axis=(1, 2)).reshape(-1, 144)
            y = cols @ self._w
            y = np.where(y > 0, y, 0.2 * y)
            grad = np.ones_like(y)
            grad_w = cols.T @ grad
            grad_cols = grad @ self._w.T
            e = np.exp(self._z - self._z.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            total += float(grad_w[0, 0] + grad_cols[0, 0] - np.log(p + 1e-12).mean())
        return total

    def _seconds(self) -> float:
        start = perf_counter()
        self.kernel()
        return perf_counter() - start

    def window_factor(self) -> float:
        """Time the kernel now; return NOMINAL_SECONDS over the mean of this
        and the previous kernel time, which bracket the window just ended."""
        now = self._seconds()
        factor = NOMINAL_SECONDS / (0.5 * (self._last + now))
        self._last = now
        return factor
