"""Fixed speed probes that put job times on one speed scale.

The shared host this benchmark runs on changes speed by 30-50% over
seconds to minutes (other tenants on the same cores); wall times of the
same code, measured minutes apart, differ by more than a regression bound.
So the worker runs a probe between jobs and reports each job's time scaled
by ``ref_s / probe time``: seconds at the speed at which the probe takes
``ref_s``. Neither probe calls ``wring`` or ``scipy.fft``, so no change to
the program, its FFT back end or its worker count moves it. Raw seconds
stay in the detail file and in the human-readable lines.

``Kernel`` is shaped like the program's own in-process work at n=64 (a
3-component field through r2c and c2r FFTs, a spectral multiply,
elementwise updates and a cross product). ``Startup`` is shaped like a
``cli-cold`` job, which is mostly interpreter and import start-up: a fresh
interpreter that imports numpy. The kernel does not track start-up, and
start-up does not track the kernel.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

N = 64
# Kernel time per FFT round trip on the reference box (2 vCPUs, see
# README) in a quiet spell. Like Startup.ref_s, it sets only the scale of
# the reported seconds, not comparisons between commits.
KERNEL_REF_S = 0.0375


class Probe:
    name = ""
    ref_s = 0.0

    def run(self) -> float:
        """Run the probe once; returns its wall time in seconds."""
        raise NotImplementedError

    def scale(self, seconds: float) -> float:
        """Factor that turns wall seconds into reference-speed seconds."""
        return self.ref_s / seconds


class Kernel(Probe):
    def __init__(self, repeats: int):
        self.repeats = repeats
        self.name = f"Kernel({repeats})"
        self.ref_s = KERNEL_REF_S * repeats
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((3, N, N, N))
        self.k = rng.standard_normal((3, N, N, N // 2 + 1))

    def run(self) -> float:
        t = time.perf_counter()
        for _ in range(self.repeats):
            s = np.fft.rfftn(self.a, axes=(1, 2, 3))
            s *= self.k
            b = np.fft.irfftn(s, self.a.shape[1:], axes=(1, 2, 3))
            np.cross(self.a + 0.5 * b, self.a, axis=0)
        return time.perf_counter() - t


class Startup(Probe):
    name = "Startup"
    ref_s = 0.15

    def run(self) -> float:
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        return time.perf_counter() - t
