"""Quadrature helpers: composite Simpson on samples and on array integrands."""

from __future__ import annotations

import numpy as np


def simpson_samples(y: np.ndarray, h: float):
    """Composite Simpson integral of uniformly sampled values.

    Handles an even number of intervals directly; an odd count is closed with
    a Simpson 3/8 rule on the last three intervals so no sample is wasted on
    a trapezoid.
    """
    y = np.asarray(y)
    n = y.shape[0]
    if n < 2:
        raise ValueError("need at least two samples")
    if n == 2:
        return (y[0] + y[1]) * (h / 2.0)
    if n % 2 == 1:
        return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())
    # even sample count: Simpson on the first n-4 intervals, 3/8 on the last 3
    if n == 4:
        return (3.0 * h / 8.0) * (y[0] + 3.0 * y[1] + 3.0 * y[2] + y[3])
    head = (h / 3.0) * (y[0] + y[-4] + 4.0 * y[1:-4:2].sum() + 2.0 * y[2:-4:2].sum())
    tail = (3.0 * h / 8.0) * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])
    return head + tail


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10):
    """Composite Simpson of f (abscissa array -> sample array) over [a, b].

    Starts on 1024 intervals and halves the step, reusing every sample,
    until two successive values differ by at most 15 tol, then returns the
    finer one plus the difference/15. Raises ValueError unless a < b, and
    RuntimeError if the values still disagree at 2^18 intervals.
    """
    if not b > a:
        raise ValueError("need a < b")
    n = 1024
    y = np.asarray(f(np.linspace(a, b, n + 1)))
    value = simpson_samples(y, (b - a) / n)
    while n < 2 ** 18:
        n *= 2
        h = (b - a) / n
        y = np.insert(y, np.arange(1, y.size), f(a + h * np.arange(1, n, 2)))
        finer = simpson_samples(y, h)
        delta = finer - value
        if abs(delta) <= 15.0 * tol:
            return finer + delta / 15.0
        value = finer
    raise RuntimeError("adaptive Simpson failed to converge (interval cap exhausted)")
