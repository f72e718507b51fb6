"""A fixed calibration kernel that measures how fast the machine runs right now.

On a shared host the speed of a vCPU moves by up to a third between states
that last from seconds to minutes, and process CPU time moves with it, so
raw pass times of the same code taken minutes apart disagree by more than
any useful regression bound.  The benchmark therefore runs this kernel next
to every timed piece of work and scales the piece's time by
`REFERENCE_S / kernel_time`: the time it would have taken at the speed at
which the kernel takes `REFERENCE_S`.

The kernel mixes the kinds of work betacocycle does (interpreted Python
loops, many small numpy/LAPACK calls, large vectorised complex arithmetic
and mpmath at raised precision), so each kind of slow-down moves it as it
moves the experiments.  It uses numpy and mpmath only, never the package
under test, so a change to the package cannot move it.
"""

from __future__ import annotations

import math
import time

import mpmath
import numpy

# the kernel's median time on the machine the benchmark was tuned on (2-vCPU
# Xeon VM, Python 3.11, numpy 2.4, mpmath 1.3); scaled times are in seconds
# at that machine's typical speed
REFERENCE_S = 0.085

# bound here, before a traced run wraps numpy.linalg.svd, so that tracing
# does not slow the kernel
_svd = numpy.linalg.svd
_SMALL = (numpy.array([[1.0, 2.0], [3.0, 4.0]]), numpy.array([[2.0]]))
_GRID = numpy.linspace(0.0, 1.0, 200_000)


def _python():
    total = 0.0
    table = {}
    for i in range(90_000):
        total += (i * 0.5) % 7.0
        table[i & 255] = total
    return total


def _numpy_small():
    for _ in range(850):
        for a in _SMALL:
            _svd(a, compute_uv=False)
        numpy.exp(_SMALL[0] * 1j)


def _numpy_large():
    for _ in range(2):
        y = numpy.exp(2j * math.pi * _GRID) * 0.5 + 2.0
        numpy.log(numpy.abs(y)).sum()


def _mpmath():
    with mpmath.workdps(60):
        beta = (1 + mpmath.sqrt(5)) / 2
        x = mpmath.mpf(1) / 3
        for _ in range(3500):
            x = x * beta
            x -= mpmath.floor(x)


def kernel_seconds():
    """Wall seconds of one run of the calibration kernel."""
    start = time.perf_counter()
    _python()
    _numpy_small()
    _numpy_large()
    _mpmath()
    return time.perf_counter() - start


def scaled(seconds, kernel_before, kernel_after):
    """`seconds` of work timed between two kernel runs, at the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (kernel_before + kernel_after)
