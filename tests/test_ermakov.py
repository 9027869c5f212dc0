"""Quadratic-form alpha: coefficients, nonlinear equation, invariant."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from darboux_lab.ermakov import AlphaFunction, invariant_j_scan, make_coeffs
from darboux_lab.fields import interior_grid
from darboux_lab.potentials import _v0_vec, make_morse, make_pt
from darboux_lab.seeds import analytic_pair


def test_coefficients_reference_triple():
    co = make_coeffs(1.0, 1.0, 1.0, 5.8)
    assert co.a == pytest.approx(0.029726516052318668, rel=1e-15)
    assert co.b == pytest.approx(0.3448275862068966, rel=1e-15)
    assert co.c == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("lam, big_j, i0, omega0", [
    (1.0, 1.0, 1.0, 5.8),
    (0.5, 2.74, 3.701, 1.0),
    (math.sqrt(math.pi / 4.0), math.pi / 4.0, 0.0, 1.0),
    (0.0, 5.0, 3.701, 1.0),
    (2.0, 0.3, -1.7, 2.8),
])
def test_discriminant_identity(lam, big_j, i0, omega0):
    # 4ac - b^2 = 4 (lam/omega0)^2 must hold to near machine accuracy for
    # every admissible constant set
    co = make_coeffs(lam, big_j, i0, omega0)
    lhs = 4.0 * co.a * co.c - co.b * co.b
    rhs = 4.0 * (lam / omega0) ** 2
    assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-12


def test_invariant_must_be_positive():
    with pytest.raises(ValueError):
        make_coeffs(1.0, 0.0, 1.0, 5.8)
    with pytest.raises(ValueError):
        make_coeffs(1.0, -2.0, 1.0, 5.8)


def test_ermakov_equation_residual():
    # alpha'' = (V0 - eps) alpha + lam^2 / alpha^3 on a 1000-point grid
    spec = make_morse(1.0, 0.4, 2)
    pair = analytic_pair(spec, 0.0)
    alpha = AlphaFunction(pair, make_coeffs(1.0, 1.0, 1.0, pair.omega0))
    grid = interior_grid(spec.window[0], spec.window[1], 1000)
    a_val, _, dda = alpha.q_parts(grid).alpha_parts()
    v0 = _v0_vec(spec, grid)
    resid = np.abs(dda - v0 * a_val - 1.0 / a_val ** 3)
    assert float(np.max(resid / np.maximum(1.0, np.abs(dda)))) < 1e-7
    assert np.all(a_val > 0.0)


def test_alpha_at_seed_node_reduces_to_av_squared():
    # where u_p vanishes only the a v^2 term of Q survives, and it is
    # positive because the Wronskian forbids shared zeros
    pair = analytic_pair(make_morse(1.0, 0.4, 2), 4.55)
    co = make_coeffs(1.0, 1.0, 1.0, pair.omega0)
    alpha = AlphaFunction(pair, co)
    node = brentq(lambda t: float(pair.up(t)[0][0]), -0.3, 0.0)
    q = alpha.q_parts(np.array([node])).q
    v_node = pair.v(np.array([node]))[0][0]
    assert q[0] > 0.0
    assert q[0] == pytest.approx(co.a * v_node * v_node, rel=1e-10)


def _conditioned(alpha, grid, big_j):
    # keep only abscissas where the Wronskian products stay small enough for
    # the subtraction to carry information
    samples = alpha.q_parts(grid)
    a_val, da_val, _ = samples.alpha_parts()
    kappa = np.abs(samples.up * da_val) + np.abs(samples.dup * a_val)
    return samples, kappa <= 1e3 * max(1.0, math.sqrt(big_j))


def test_invariant_scan_morse():
    spec = make_morse(1.0, 0.4, 2)
    pair = analytic_pair(spec, 0.0)
    alpha = AlphaFunction(pair, make_coeffs(1.0, 1.0, 1.0, pair.omega0))
    samples, keep = _conditioned(
        alpha, interior_grid(spec.window[0], spec.window[1], 800), 1.0)
    assert np.count_nonzero(keep) > 400
    assert invariant_j_scan(samples, keep) < 1e-8


def test_invariant_scan_pt_symmetric_coeffs():
    spec = make_pt(1.0, 3.0)
    pair = analytic_pair(spec, 0.25)
    big_j = math.pi / 4.0
    alpha = AlphaFunction(
        pair, make_coeffs(math.sqrt(big_j), big_j, 0.0, pair.omega0))
    samples, keep = _conditioned(alpha, interior_grid(-1.5, 1.5, 800), big_j)
    assert np.count_nonzero(keep) > 400
    assert invariant_j_scan(samples, keep) < 1e-8


def test_second_derivative_of_q_by_finite_differences():
    pair = analytic_pair(make_pt(1.0, 3.0), 5.26)
    alpha = AlphaFunction(pair, make_coeffs(0.7, 2.74, 3.701, pair.omega0))
    grid = np.linspace(-1.1, 1.1, 61)
    h = 1e-4
    ddq = alpha.q_parts(grid).ddq
    qp = alpha.q_parts(grid + h).q
    q0 = alpha.q_parts(grid).q
    qm = alpha.q_parts(grid - h).q
    num = (qp - 2.0 * q0 + qm) / (h * h)
    assert float(np.max(np.abs(num - ddq) / np.maximum(1.0, np.abs(ddq)))) < 1e-6
