"""The host-speed reference that the benchmark's times are scaled by.

On the shared hosts this benchmark was built on, the speed of identical work
flips between two levels about 1.7x apart, in stretches from a fraction of a
second to minutes (NOTES.md, Noise).  ``reference_s`` times a fixed piece of
work of the kind the library does: a Python loop, dict updates and small
dense solves.  Timed right before and right after a library call, it tells
how fast the host ran during the call.  ``speed`` turns that into the factor
that scales the call's wall time to *reference time*: the time the call would
take on a host where the reference takes ``NOMINAL_S``.
"""

import time

import numpy as np

NOMINAL_S = 1e-3  # about what the reference takes on the hosts the notes describe

_M = np.random.default_rng(0).standard_normal((40, 40)) + 40.0 * np.eye(40)


def _work():
    s = 0.0
    for i in range(2000):
        s += i * 0.5
    for _ in range(20):
        np.linalg.solve(_M, _M[0])
    d = {}
    for i in range(300):
        key = (i % 7, i % 5)
        d[key] = d.get(key, 0.0) + 1.0
    return s


def reference_s():
    """Wall seconds of one run of the reference work.  An untimed run comes
    first: right after a library call the first run is about 10 % slower,
    because the call has pushed the reference's data out of the caches."""
    _work()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def speed(before_s, after_s):
    """Reference time per wall second, from the reference timed around a call."""
    return NOMINAL_S / (0.5 * (before_s + after_s))
