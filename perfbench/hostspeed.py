"""Host-speed correction for the end-to-end timings.

On a shared host the speed of one core changes with what other tenants
run on its neighbours: the same single-threaded work takes up to about 1.8
times as long from one second to the next, and the share of slow seconds
drifts over minutes. A run's mean time then follows the host more than the
program.

A :class:`HostSpeed` runs a fixed slice of work (:func:`slice_work`, which
mixes interpreter-level float arithmetic with small numpy calls, as
levsketch's inner loops do) just before every timed span opens and just
after it closes, so the slices sample the host at the same moments as the
program. The benchmark reports each end-to-end time in seconds on a host on
which one slice takes ``REF_SLICE_S``:

- a span much shorter than the host's speed changes (a store build, a burst
  of point writes) is scaled by :meth:`HostSpeed.local`, from the two
  slices that bracket it;
- times summed over many spans across the run (passes, sketches, scoring)
  are scaled by :meth:`HostSpeed.factor`, from the mean of every slice of
  the run.

The slice code lives here, not in levsketch, so a change to the program
never changes the yardstick. Traced runs take no slices; the per-layer
times are raw wall times.
"""
from __future__ import annotations

import math
import time

import numpy as np

SLICE_STEPS = 400
# untimed steps before each slice, so that the work just before it (a sweep
# over a large matrix, say) sways the slice's time less
WARM_STEPS = 40
# one slice on the reference host (2 shared cores) at its faster speed level
REF_SLICE_S = 2.0e-3


def slice_work(steps: int = SLICE_STEPS) -> float:
    """Plane rotations of two 64-vectors: a fixed mix of float arithmetic
    in the interpreter and small numpy calls."""
    x = np.linspace(1.0, 2.0, 64)
    y = np.linspace(2.0, 1.0, 64)
    for _ in range(steps):
        g = float(np.dot(x, y))
        t = math.copysign(1.0, g) / (1.0 + math.hypot(1.0, g))
        c = 1.0 / math.sqrt(1.0 + t * t)
        x, y = c * x - t * c * y, t * c * x + c * y
    return float(x[0])


class HostSpeed:
    """Times calibration slices; ``total`` is the time spent in them."""

    def __init__(self):
        self.total = 0.0
        self.count = 0

    def sample(self) -> float:
        """Run one slice and return its duration."""
        slice_work(WARM_STEPS)
        start = time.perf_counter()
        slice_work()
        took = time.perf_counter() - start
        self.total += took
        self.count += 1
        return took

    def factor(self) -> float:
        """Multiply a wall time spread over the run by this to get
        reference-host seconds."""
        return REF_SLICE_S * self.count / self.total

    @staticmethod
    def local(span) -> float:
        """Reference-host seconds of one short span, from the slices
        taken just before it opened and just after it closed."""
        return span.duration * 2.0 * REF_SLICE_S / (span.pre + span.post)
