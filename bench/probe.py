"""A fixed probe of the host's current speed.

On a shared host the same work runs tens of percent slower or faster from
one second to the next, and from one minute to the next, as other load
comes and goes. The benchmark runs this probe next to every timed piece of
ccsl work and divides the two: the probe does a fixed mix of the same kinds
of work ccsl does (interpreted Python, string formatting, small numpy
arrays, scipy.special), so both slow down together, and the quotient
follows changes to ccsl, not to the host. The probe uses nothing from
ccsl, so no change to ccsl moves it.

A time in reference seconds is a wall time scaled by REFERENCE_S / probe
time: the wall time on a host that runs the probe in exactly REFERENCE_S.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.special

REFERENCE_S = 0.010  # the probe's time on a quiet 2-vCPU x86-64 VM, rounded
_X = np.linspace(0.1, 10.0, 64)


def probe() -> float:
    """Run the fixed probe work once; its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(800):
        acc += len(",".join((f"{i * 1.5:.8e}", str(i))))
        acc += float(np.sum(scipy.special.j1(_X * (1.0 + i * 1e-3)) ** 2))
        acc += sum(k * 0.5 for k in range(40))
    return time.perf_counter() - t0


def to_reference(wall: float, before: float, after: float) -> float:
    """`wall` in reference seconds, given the probe times just before and
    just after it."""
    return wall * REFERENCE_S / (0.5 * (before + after))
