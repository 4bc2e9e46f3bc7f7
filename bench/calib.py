"""Machine-speed calibration: fixed work that never touches kdiss.

    python3 bench/calib.py            # one calibration process; prints nothing

The benchmark's machine is a shared VM whose speed drifts by up to 30%
within a minute, on CPU time as much as on wall time.  To keep that drift
out of the figures, every timed sample is bracketed by calibrations: this
script as a fresh process around each CLI process, ``kernel_s()`` in-process
around each stretch of store operations.  A sample is then reported in
reference seconds, ``wall * REF / mean(calibration before, after)``: the
time it would have taken on a machine where the calibration takes ``REF``.
The calibration uses only Python and numpy, so a change to kdiss moves the
figures and a change in machine speed does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Calibration times on the reference machine (the 2-vCPU VM described in
# README.md); fixed, so that figures stay comparable across commits.
REF_PROCESS_S = 0.25
REF_KERNEL_S = 0.005
PROCESS_REPS = 2000
KERNEL_REPS = 150


def kernel(reps: int) -> float:
    """The mix kdiss runs: dict and float work in Python, small numpy arrays."""
    table = {f"k{i:04d}": float(i) for i in range(400)}
    shares = np.linspace(0.5, 1.5, 34)
    acc = 0.0
    for _ in range(reps):
        for key, value in table.items():
            acc += value * 1.0001
        norm = shares / shares.sum()
        acc += float(np.minimum(norm, norm[::-1]).sum()) + float(np.abs(norm - norm.mean()).max())
    return acc


def kernel_s() -> float:
    """Median wall time of three in-process kernel runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel(KERNEL_REPS)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(wall: float, before: float, after: float, ref: float) -> float:
    """``wall`` in reference seconds, given the calibrations around it."""
    return wall * ref / (0.5 * (before + after))


if __name__ == "__main__":
    kernel(PROCESS_REPS)
