"""Seed pairs: Wronskian constancy, backend contracts, the q-integral."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from darboux_lab.fields import interior_grid
from darboux_lab.potentials import _v0_vec, make_morse, make_oscillator, make_pt
from darboux_lab.seeds import (
    SeedBackendError, analytic_pair, numeric_pair, q_integral, wronskian_drift)


def test_morse_analytic_wronskian_value():
    # omega0 = 2 gamma sqrt(gamma0 - eps); at eps = 0 that is 2 * 2.9
    pair = analytic_pair(make_morse(1.0, 0.4, 2), 0.0)
    assert pair.backend == "analytic"
    assert pair.omega0 == pytest.approx(5.8, rel=1e-14)
    assert wronskian_drift(pair) < 1e-8


def test_pt_analytic_wronskian_is_well_strength():
    for eps in (0.25, 5.26, 8.075):
        pair = analytic_pair(make_pt(1.0, 3.0), eps)
        assert pair.omega0 == pytest.approx(1.0, rel=1e-14)
        assert wronskian_drift(pair) < 1e-8


def test_analytic_members_solve_the_seed_equation():
    # u'' = (V0 - eps) u for both members, by centered differences
    pair = analytic_pair(make_morse(1.0, 0.4, 2), 4.55)
    grid = np.linspace(-1.0, 6.0, 301)
    # h near eps^(1/4) balances stencil truncation against roundoff
    h = 1e-4
    for member in (pair.up, pair.v):
        val, dval = member(grid)
        vp = member(grid + h)[0]
        vm = member(grid - h)[0]
        second = (vp - 2.0 * val + vm) / (h * h)
        v0 = _v0_vec(pair.spec, grid)
        resid = np.abs(second - (v0 - 4.55) * val)
        scale = np.maximum(1.0, np.abs(second))
        assert float(np.max(resid / scale)) < 1e-5


def test_analytic_derivative_consistency():
    pair = analytic_pair(make_pt(1.0, 3.0), 5.26)
    grid = np.linspace(-1.2, 1.2, 97)
    h = 1e-6
    for member in (pair.up, pair.v):
        _, dval = member(grid)
        num = (member(grid + h)[0] - member(grid - h)[0]) / (2.0 * h)
        assert np.max(np.abs(num - dval) / np.maximum(1.0, np.abs(dval))) < 1e-8


def test_numeric_backend_meets_drift_contract():
    pair = numeric_pair(make_morse(1.0, 0.4, 2), 0.0)
    assert pair.backend == "numeric"
    assert pair.omega0 == 1.0
    assert wronskian_drift(pair) < 1e-8


def test_numeric_initial_data_anchor():
    pair = numeric_pair(make_pt(1.0, 3.0), 5.26, x0=0.0, omega0=2.5)
    up, dup = pair.up(np.array([0.0]))
    v, dv = pair.v(np.array([0.0]))
    assert up[0] == pytest.approx(1.0, abs=1e-12)
    assert dup[0] == pytest.approx(0.0, abs=1e-12)
    assert v[0] == pytest.approx(0.0, abs=1e-12)
    assert dv[0] == pytest.approx(2.5, rel=1e-12)


def test_numeric_pt_window_pulled_inside_walls():
    spec = make_pt(1.0, 3.0)
    pair = numeric_pair(spec, 5.26)
    assert spec.window[0] < pair.window[0] < pair.window[1] < spec.window[1]
    with pytest.raises(ValueError):
        pair.up(np.array([spec.window[1]]))


def test_oscillator_has_no_series_backend():
    with pytest.raises(SeedBackendError):
        analytic_pair(make_oscillator(), 2.0)


def test_numeric_rejects_zero_wronskian_and_outside_anchor():
    spec = make_morse(1.0, 0.4, 2)
    with pytest.raises(ValueError):
        numeric_pair(spec, 0.0, omega0=0.0)
    with pytest.raises(ValueError):
        numeric_pair(spec, 0.0, x0=-5.0)


def test_q_integral_matches_independent_quadrature():
    pair = analytic_pair(make_morse(1.0, 0.4, 2), 0.0)

    def reciprocal_sq(t):
        return 1.0 / float(pair.up(t)[0][0]) ** 2

    ref, _ = quad(reciprocal_sq, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    assert q_integral(pair, 1.0, 0.0) == pytest.approx(ref, rel=1e-10)
    # antisymmetry in the limits and the anchor convention
    assert q_integral(pair, 0.0, 1.0) == pytest.approx(-ref, rel=1e-10)
    assert q_integral(pair, 0.7, 0.7) == 0.0


def test_q_integral_rejects_interval_with_node():
    # between the first two levels u_p has one zero; the reciprocal-square
    # integral across it diverges
    pair = analytic_pair(make_morse(1.0, 0.4, 2), 4.55)
    with pytest.raises(ValueError):
        q_integral(pair, 3.0, -1.0)


def test_drift_is_scale_invariant_diagnostic():
    # the drift statistic is relative: it must not change when the pair is
    # rebuilt with a different prescribed Wronskian
    spec = make_pt(1.0, 3.0)
    d1 = wronskian_drift(numeric_pair(spec, 5.26, omega0=1.0))
    d2 = wronskian_drift(numeric_pair(spec, 5.26, omega0=100.0))
    assert d1 < 1e-8 and d2 < 1e-8
