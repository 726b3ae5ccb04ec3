"""Reference kernels that track how fast the shared machine runs right now.

The reference machine is a shared 2-vCPU VM whose speed drifts: the same 40
`verify` ops took a median of 0.57 s in one minute and 1.07 s a few minutes
later, with CPU time drifting as much as wall time. A fixed computation
that imports nothing from qmsflow, timed between the ops of the same
worker, slows down with them; dividing by its slowdown leaves the op time
the machine would give when idle. How code slows down depends on what it
does, so each workload has the kernel that resembles it: Python loops and
small numpy calls for the small-dimension workloads, and LAPACK on 256x256
complex matrices with OpenBLAS's threads for dense-d16, whose two BLAS
threads stall together when the other vCPU is busy.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def python_kernel() -> float:
    """Seconds for Python loops and 20x20 numpy calls (single-threaded)."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    h = a + a.conj().T
    for _ in range(40):
        np.linalg.eigh(h)
    for _ in range(600):
        (a @ h).trace()
    return time.perf_counter() - start


def lapack_kernel() -> float:
    """Seconds for an eigh, an SVD and a product of 256x256 complex matrices."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    b = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    np.linalg.eigh(b + b.conj().T)
    np.linalg.svd(b, compute_uv=False)
    b @ b
    return time.perf_counter() - start


# Each kernel's time on the reference machine (2-vCPU Xeon VM, OpenBLAS
# 0.3.31, 2 threads) when idle, about the fastest seen there.
NOMINAL_S = {python_kernel: 0.025, lapack_kernel: 0.055}
# Kernel time spent after each CLI call, as a share of the call's wall
# time, so the samples follow the machine over the whole run.
SHARE = 0.05


class Gauge:
    """Samples one kernel; `slowdown` is its median time over nominal."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        kernel()  # warm-up, not recorded

    def sample(self, call_wall_s: float = 0.0, at_least: int = 1):
        n = max(at_least, round(SHARE * call_wall_s / NOMINAL_S[self.kernel]))
        self.samples += [self.kernel() for _ in range(n)]

    def slowdown(self) -> float:
        return statistics.median(self.samples) / NOMINAL_S[self.kernel]
