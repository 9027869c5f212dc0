"""Special-function kernels against an independent reference.

Reference values were frozen from a separately maintained special-function
library evaluated at the same points; agreement is required to 5e-14
relative, well inside both implementations' error budgets.
"""

import math

import numpy as np
import pytest

from darboux_lab.specfun import _gauss_vec, _kummer_vec, _laguerre_vec, log_gamma

RTOL = 5e-14


@pytest.mark.parametrize("x, want", [
    (0.5, 0.57236494292469997),
    (4.5, 2.4537365708424423),
    (7.25, 7.0521854507385395),
    (12.0, 17.502307845873887),
])
def test_log_gamma_reference_values(x, want):
    assert log_gamma(x) == pytest.approx(want, rel=RTOL)


def test_log_gamma_recurrence():
    # Gamma(x+1) = x Gamma(x), in log form, across the argument range the
    # seed formulas actually visit
    for x in np.linspace(0.2, 30.0, 47):
        assert log_gamma(x + 1.0) == pytest.approx(
            log_gamma(x) + math.log(x), rel=1e-13)


def test_log_gamma_half_integer_closed_form():
    # Gamma(1/2) = sqrt(pi)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


@pytest.mark.parametrize("a, c, z, want", [
    (0.3, 1.7, 2.5, 1.9378165350288665),
    (-0.8, 0.6, 1.9, -1.9564017681345718),
    (1.2, 2.8, -3.4, 0.32430716888917904),
    (2.5, 0.9, 0.75, 5.2631262037675954),
])
def test_kummer_reference_values(a, c, z, want):
    values, _, converged = _kummer_vec(a, c, np.array([z]))
    assert converged.all()
    assert values[0] == pytest.approx(want, rel=RTOL)


def test_kummer_at_origin_is_one():
    assert _kummer_vec(0.7, 1.3, np.array([0.0]))[0][0] == 1.0


def test_kummer_terminates_for_nonpositive_integer_a():
    # a = -2 gives the quadratic 1 - 2z/c + z^2/(c(c+1)); termination must be
    # exact, not approximate
    a, c = -2.0, 1.5
    values, terms_used, converged = _kummer_vec(a, c, np.array([0.8]))
    exact = 1.0 - 2.0 * 0.8 / c + 0.8 ** 2 / (c * (c + 1.0))
    assert converged.all() and terms_used == 3
    assert values[0] == pytest.approx(exact, rel=1e-15)
    # degree 0 (a snapped Morse seed at epsilon = E0): the constant 1
    z = np.array([-3.0, 0.8, 450.0])
    for a in (0.0, -0.0):
        values, terms_used, converged = _kummer_vec(a, c, z)
        assert converged.all() and terms_used == 1
        assert np.all(values == 1.0)


def test_kummer_transformation_identity():
    # 1F1(a,c,z) = e^z 1F1(c-a, c, -z)
    a, c = 0.45, 1.85
    z = np.array([-2.0, 0.6, 3.2])
    lhs = _kummer_vec(a, c, z)[0]
    rhs = np.exp(z) * _kummer_vec(c - a, c, -z)[0]
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("a, b, c, z, want", [
    (0.35, 0.6, 1.9, 0.4, 1.0526409460009207),
    (0.35, 0.6, 1.9, 0.93, 1.1894786669720596),   # connection region
    (-1.5, 2.2, 3.1, 0.55, 0.48321132364581187),
    (1.1, 0.4, 2.3, 0.86, 1.3114742754243318),    # connection region
])
def test_gauss_reference_values(a, b, c, z, want):
    z = np.array([z])
    values, _, converged = _gauss_vec(a, b, c, z, 1.0 - z)
    assert converged.all()
    assert values[0] == pytest.approx(want, rel=1e-13)


def test_gauss_at_origin_is_one():
    z = np.array([0.0])
    assert _gauss_vec(0.3, 0.9, 1.4, z, 1.0 - z)[0][0] == 1.0


def test_gauss_argument_symmetry():
    # the grid straddles the switch to the connection formula at z = 0.75
    z = np.array([0.15, 0.5, 0.88])
    assert _gauss_vec(0.7, 1.9, 2.6, z, 1.0 - z)[0] == pytest.approx(
        _gauss_vec(1.9, 0.7, 2.6, z, 1.0 - z)[0], rel=1e-13)


def test_gauss_terminating_polynomial():
    # a = -1 collapses to 1 - (b/c) z exactly, also past the direct-series
    # limit
    b, c = 1.7, 2.4
    z = np.array([0.2, 0.95])
    values, terms_used, converged = _gauss_vec(-1.0, b, c, z, 1.0 - z)
    assert converged.all() and terms_used == 2
    assert values == pytest.approx(1.0 - b * z / c, rel=1e-15)
    # degree 0: the constant 1, on both sides of the direct-series limit
    for a in (0.0, -0.0):
        values, terms_used, converged = _gauss_vec(a, b, c, z, 1.0 - z)
        assert converged.all() and terms_used == 1
        assert np.all(values == 1.0)


def test_gauss_rejects_argument_at_or_past_one():
    for z in (np.array([1.0]), np.array([-0.1])):
        with pytest.raises(ValueError):
            _gauss_vec(0.3, 0.4, 1.5, z, 1.0 - z)


@pytest.mark.parametrize("n, alpha, y, want", [
    (3, 0.5, 1.2, -0.8304999999999999),
    (5, 2.25, 4.0, 3.1971761067708333),
    (0, 1.0, 2.0, 1.0),
])
def test_laguerre_reference_values(n, alpha, y, want):
    assert _laguerre_vec(n, alpha, np.array([y]))[0][0] == pytest.approx(
        want, rel=RTOL)


def test_laguerre_three_term_recurrence():
    # (n+1) L_{n+1} = (2n+1+alpha-y) L_n - (n+alpha) L_{n-1}
    alpha, y = 0.8, np.array([2.7])
    for n in range(1, 9):
        lhs = (n + 1) * _laguerre_vec(n + 1, alpha, y)[0]
        rhs = ((2 * n + 1 + alpha - y) * _laguerre_vec(n, alpha, y)[0]
               - (n + alpha) * _laguerre_vec(n - 1, alpha, y)[0])
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_laguerre_rejects_negative_degree():
    with pytest.raises(ValueError):
        _laguerre_vec(-1, 0.5, np.array([1.0]))
