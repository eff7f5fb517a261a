"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on share their cores with other tenants.
The speed of a core switches between a fast and a slow state, up to a
factor of two apart, within a pass of the job list and over spells longer
than a run; raw medians moved by 15-25% from run to run.

``sample()`` times a fixed, interpreter-bound loop that does not touch
ccbilliards but mixes the same operations as its pure-Python kernels
(calls, float math, numpy scalar reads and writes).  ``run.py`` takes a
sample between jobs about every ``CADENCE_S`` seconds of job time, so the
samples see the slow state as often as the jobs do.  ``scaled`` divides the
mean pass time by the mean sample time: both are averages over the same
spell, and the ratio is in seconds at one fixed machine speed, at which
``sample()`` takes ``REFERENCE_S``.
"""

import math
import statistics
import time

import numpy as np

STEPS = 6000
REFERENCE_S = 0.010   # sample() seconds at the reference machine speed
CADENCE_S = 0.2       # job seconds between samples


def _step(p, v, out, c, s):
    out[0] = p[0] * c + v[0] * s
    out[1] = p[1] * c - v[1] * s
    out[2] = math.sqrt(p[2] * p[2] + v[2] * v[2])
    return out[0] * out[1] - out[2]


def sample():
    """Seconds of the fixed loop, now."""
    p = np.array([0.3, 0.4, 1.2])
    v = np.array([0.6, -0.8, 0.1])
    out = np.empty(3)
    c, s = math.cos(0.7), math.sin(0.7)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(STEPS):
        acc += _step(p, v, out, c, s)
    return time.perf_counter() - t0


def scaled(times, samples):
    """Mean time at the reference machine speed."""
    return statistics.mean(times) * REFERENCE_S / statistics.mean(samples)
