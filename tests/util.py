"""Shared numeric helpers for the test suite."""

import tracemalloc

import numpy as np


def central_fd(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def tangential_fd(f, p, h=1e-6):
    """Directional derivatives along e_i - e_0, which span the simplex tangent.

    Returns a list of (direction, derivative) pairs; use these to check
    gradients that are only defined up to a constant shift along ones.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    out = []
    for i in range(1, n):
        d = np.zeros(n)
        d[i] = 1.0
        d[0] = -1.0
        out.append((d, (f(p + h * d) - f(p - h * d)) / (2.0 * h)))
    return out


def random_interior(rng, n, floor=0.05):
    """Random simplex point bounded away from the boundary."""
    p = rng.dirichlet(np.ones(n))
    p = (1.0 - n * floor) * p + floor
    return p / p.sum()


def tracemalloc_peak(fn, *args, warm=None, **kwargs):
    """(fn(*args, **kwargs), peak bytes it held above what was live before).

    numpy reports its array buffers to tracemalloc, so the peak counts the
    arrays the call allocated, temporaries included.  `warm`, a tuple of
    arguments for a tiny input, makes one untraced call fn(*warm) first:
    numpy's one-time first-call allocations then count in no peak, so the
    peak does not depend on what ran earlier in the process.
    """
    if warm is not None:
        fn(*warm)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return out, peak - base
