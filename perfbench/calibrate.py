"""The machine's speed, measured between ops, so that a run's times can be
given at one reference speed.

On a shared host the same op can take half again as long for seconds to
minutes at a time, as other tenants load the cores.  Run-to-run spread
from that swamps what a change to the program does.  ``sample()`` times
a fixed kernel that never touches thermoact: interpreter work on small
frozen dataclasses, small numpy and ``scipy.linalg`` calls, and one
banded and one sparse solve, the kinds of work thermoact's ops are made
of.  Its time, taken before and after each block of ops, gives the
block's speed.  ``scales(samples)`` gives each block the factor that
turns a time measured in it into the time it would have taken at the
reference speed, the speed at which the kernel takes ``REF_S``.  A change to the program
moves its op times and not the kernel, so it shows in full in the
scaled figures.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_banded
from scipy.sparse import diags
from scipy.sparse.linalg import spsolve

# Seconds the kernel takes at the reference speed: about its time on an
# unloaded core of the 2-core Xeon box the benchmark was defined on.
REF_S = 0.0025
# A sample is the fastest of this many kernel runs, so that one
# preemption does not read as a slow machine.
RUNS = 3
# Seconds of ops between two samples.
EVERY_S = 0.2
# A block's speed is the median of the samples this many places either
# side of it: about a second of ops.
WINDOW = 2


@dataclass(frozen=True)
class _Item:
    a: float
    b: float
    c: float


_SPD = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
_N = 4097
_BANDED = np.vstack([np.r_[0.0, np.full(_N - 1, -1.0)], np.full(_N, 2.01),
                     np.r_[np.full(_N - 1, -1.0), 0.0]])
_SPARSE = diags([np.full(59, -1.0), np.full(60, 4.0), np.full(59, -1.0)],
                [-1, 0, 1], format="csc")


def kernel():
    total = 0.0
    for k in range(800):
        item = _Item(k * 0.5, k + 1.0, 2.0)
        total += (item.a * item.b) % 7.0 + abs(item.c - k)
    factor = cho_factor(_SPD, lower=True)
    for k in range(40):
        x = np.linspace(0.0, 1.0, 33) + k
        y = np.expm1(-x) * np.cosh(x * 1e-3)
        total += float(cho_solve(factor, y[:3]).sum()) + float(y.sum())
    for k in range(2):
        total += float(solve_banded((1, 1), _BANDED, np.ones(_N))[k])
        total += float(spsolve(_SPARSE, np.ones(60))[k])
    return total


def sample():
    """Seconds the kernel takes now: the fastest of ``RUNS`` runs."""
    best = float("inf")
    for _ in range(RUNS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scales(samples):
    """Factor to the reference speed for each block of ops between two
    samples: ``REF_S`` over the median of the samples within ``WINDOW``
    of the block, so that one odd sample does not rescale a block."""
    return [REF_S / statistics.median(samples[max(j - WINDOW + 1, 0):j + 1 + WINDOW])
            for j in range(len(samples) - 1)]
