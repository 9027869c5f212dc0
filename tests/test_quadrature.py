"""Quadrature: composite Simpson with interval doubling on vectorised integrands."""

import math

import numpy as np
import pytest

from darboux_lab.quadrature import adaptive_simpson

_WIDTH = 2e-4


def _peak(x):
    return np.exp(-((x - 0.3) / _WIDTH) ** 2)


def test_narrow_peak_to_tolerance():
    # the peak is a fifth of the starting step wide, so the first grid
    # undersamples it and only the doubling resolves it
    exact = _WIDTH * math.sqrt(math.pi)
    for tol in (1e-8, 1e-10):
        assert abs(adaptive_simpson(_peak, 0.0, 1.0, tol=tol) - exact) <= tol


def test_integrand_sees_arrays_and_at_most_nine_calls():
    seen = []

    def integrand(x):
        seen.append(x)
        return _peak(x)

    adaptive_simpson(integrand, 0.0, 1.0, tol=1e-12)
    assert 1 < len(seen) <= 9
    assert all(isinstance(x, np.ndarray) and x.ndim == 1 for x in seen)


def test_unconverged_by_the_cap_raises():
    # a jump leaves an O(h) Simpson error that no step down to 2^-18 brings
    # under the tolerance
    calls = []

    def step(x):
        calls.append(x.size)
        return np.where(x < 1.0 / 3.0, 0.0, 1.0)

    with pytest.raises(RuntimeError):
        adaptive_simpson(step, 0.0, 1.0, tol=1e-10)
    assert len(calls) == 9 and sum(calls) == 2 ** 18 + 1


def test_empty_or_reversed_interval_rejected():
    for a, b in ((1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError):
            adaptive_simpson(np.cos, a, b)
