"""Host-speed calibration for the benchmark's timings.

The shared host this benchmark runs on changes speed by up to about 2x, in
phases of seconds to minutes, and CPU time tracks wall time: the process is
slowed, not descheduled. A raw op time then measures the phase as much as
the program. So each workload names a fixed kernel of the benchmark's own
numpy code with the same mix of work as its ops, and the runner times that
kernel between ops. An op's time scaled by ``REFERENCE_S[kernel]`` over the
mean of the kernel times just before and just after it is the op's time on a
host where the kernel takes ``REFERENCE_S[kernel]``; the end-to-end timings
report that. The kernels import nothing from ``transectplan``, so a change
to the package cannot move them.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

import reference as ref

# The temperature fit, as a plain object so nothing of the package is used.
H = SimpleNamespace(ell1=40.45, ell2=16.0, signal_var=0.1542, noise_var=0.0036)
WIDTHS = (5.0, 5.0)
DENSE_CELLS = ref.grid_cells(5, 120)


def _small() -> None:
    """Python-level loops over 2x2 to 6x6 matrices: a 6-row, k=2 stage table."""
    ref.stage_table(6, 2, H, WIDTHS)


def _dense() -> None:
    """Gram assembly and Cholesky factor of a 600-cell grid."""
    np.linalg.cholesky(ref.cov(DENSE_CELLS, DENSE_CELLS, H, WIDTHS))


# name: (kernel, repeats that make one reading)
KERNELS = {"small": (_small, 16), "dense": (_dense, 4)}

# Each kernel's time in the fast phase of the 2-vCPU host the README's
# figures come from; they only fix the scale of the reported seconds.
REFERENCE_S = {"small": 0.0009, "dense": 0.011}


def kernel_seconds(name: str) -> float:
    """One reading of the named kernel: the mean time of the middle half of
    its repeats, so one repeat caught by a preemption does not move it."""
    fn, repeats = KERNELS[name]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    middle = times[repeats // 4 : repeats - repeats // 4]
    return sum(middle) / len(middle)


def scaled(seconds: float, before: float, after: float, name: str) -> float:
    """``seconds`` measured between kernel readings ``before`` and
    ``after``, at the reference speed."""
    return seconds * REFERENCE_S[name] * 2.0 / (before + after)
