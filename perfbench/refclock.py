"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host the same op can take up to twice as long while other tenants
load the cores it shares, in episodes from a second to minutes long, so raw
wall times of identical runs spread by 30% and more.  The benchmark times this
kernel between windows of ops and scales each op's time by
``NOMINAL_S / kernel time``: op times are reported at a fixed host speed, the
one at which the kernel takes ``NOMINAL_S``.  Each workload uses the kernel
that does what its ops mostly do (small numpy solves driven from Python, or
CSV parsing), so contention slows kernel and op about equally.  The kernels
never change, so a change to lineariv moves the scaled times as much as it
moves the raw ones.

    python3 perfbench/refclock.py    # prints the kernel's time here
"""

from __future__ import annotations

import csv
import random
import statistics
import time
from functools import cache

# Each kernel's uncontended median time on the machine the baseline was
# recorded on (2 vCPU x86-64, Python 3.11, numpy 2.4 with OpenBLAS 0.3.31).
NOMINAL_S = {"numeric": 0.0014, "parse": 0.0015}

_RANDOM = random.Random(20260809)
_CSV_LINES = [",".join(repr(_RANDOM.gauss(0.0, 1.0)) for _ in range(4)) for _ in range(700)]


@cache
def _numeric_inputs():
    import numpy as np   # imported on first use, so the parse kernel runs without numpy

    gen = np.random.default_rng(20260809)
    return np, gen.standard_normal((500, 3)), gen.standard_normal(500)


def _numeric() -> None:
    np, design, response = _numeric_inputs()
    for _ in range(40):
        u, s, vt = np.linalg.svd(design, full_matrices=False)
        coef = vt.T @ ((u.T @ response) / s)
        resid = response - design @ coef
        np.sum(np.log1p(np.exp(-np.abs(resid))))


def _parse() -> None:
    [[float(cell) for cell in row] for row in csv.reader(_CSV_LINES)]


# "numeric" is what a small fit does; "parse" is what load_csv does.
KERNELS = {"numeric": _numeric, "parse": _parse}


def kernel_seconds(kind: str = "numeric") -> float:
    """Wall time of one run of the reference kernel ``kind``."""
    t = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - t


def scale(latencies: list[float], samples: list[tuple[int, float]], kind: str) -> list[float]:
    """Scales op times to the nominal host speed, measured with kernel ``kind``.

    ``samples`` holds (ops completed before the sample, kernel seconds) in
    order.  Op j is scaled by the mean of the last sample taken before it and
    the first taken after it.
    """
    out, k = [], 0
    for j, latency in enumerate(latencies):
        while k + 1 < len(samples) and samples[k + 1][0] <= j:
            k += 1
        before = samples[k][1]
        after = samples[k + 1][1] if k + 1 < len(samples) else before
        out.append(latency * NOMINAL_S[kind] / ((before + after) / 2))
    return out


if __name__ == "__main__":
    for kind in KERNELS:
        times = [kernel_seconds(kind) for _ in range(500)]
        print(f"{kind} kernel: min {min(times):.6f} s, median {statistics.median(times):.6f} s "
              f"over {len(times)} runs")
