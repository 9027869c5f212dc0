"""Solvable families: closed-form levels, potential shape, bound states."""

import math

import numpy as np
import pytest

from darboux_lab import oracle
from darboux_lab.fields import interior_grid
from darboux_lab.potentials import (
    _v0_vec, bound_state, energy, make_morse, make_oscillator, make_pt)
from darboux_lab.quadrature import simpson_samples


def test_morse_n2_level_set():
    spec = make_morse(1.0, 0.4, 2)
    assert [energy(spec, n) for n in range(3)] == pytest.approx(
        [2.65, 6.45, 8.25], abs=1e-12)


def test_morse_n4_level_set():
    spec = make_morse(1.0, 0.4, 4)
    assert [energy(spec, n) for n in range(5)] == pytest.approx(
        [4.65, 12.45, 18.25, 22.05, 23.85], abs=1e-12)


def test_morse_derived_constants():
    # d = n_max + delta + 1/2 and the dissociation limit gamma0 = (gamma d)^2
    spec = make_morse(1.0, 0.4, 2)
    assert spec.params["d"] == pytest.approx(2.9, abs=1e-15)
    assert spec.params["gamma0"] == pytest.approx(8.41, abs=1e-12)
    assert spec.n_bound == 3


def test_morse_ladder_top_rejected():
    spec = make_morse(1.0, 0.4, 2)
    with pytest.raises(ValueError):
        energy(spec, 3)


def test_morse_shape():
    # minimum value 0 at the origin, dissociation to gamma0 on the right,
    # steep repulsive wall on the left
    spec = make_morse(1.0, 0.4, 2)
    v_min, v_right, v_left = _v0_vec(spec, np.array([0.0, 15.0, -1.0]))
    assert v_min == 0.0
    assert v_right == pytest.approx(spec.params["gamma0"], rel=1e-3)
    assert v_left > 2.0 * spec.params["gamma0"]


def test_pt_level_set_is_quadratic_ladder():
    spec = make_pt(1.0, 3.0)
    assert [energy(spec, n) for n in range(3)] == [9.0, 16.0, 25.0]
    assert make_pt(1.0, 4.0).params["r"] == 4.0
    assert energy(make_pt(1.0, 4.0), 0) == 16.0


def test_pt_window_is_the_hard_domain():
    u0 = 2.0
    spec = make_pt(u0, 3.0)
    lo, hi = spec.window
    assert hi == pytest.approx(math.pi / (2.0 * u0), rel=1e-15)
    assert lo == -hi
    assert spec.n_bound is None


def test_pt_minimum_and_wall():
    spec = make_pt(1.0, 3.0)
    v_min, v_wall = _v0_vec(spec, np.array([0.0, 1.5]))
    assert v_min == pytest.approx(6.0, rel=1e-14)
    assert v_wall > 1e3
    with pytest.raises(ValueError):
        _v0_vec(spec, np.array([1.6]))


def test_oscillator_levels_are_odd_integers():
    spec = make_oscillator()
    assert [energy(spec, n) for n in range(4)] == [1.0, 3.0, 5.0, 7.0]


@pytest.mark.parametrize("bad_delta", [0.0, -0.2, 1.0, 1.2])
def test_morse_delta_range_enforced(bad_delta):
    with pytest.raises(ValueError):
        make_morse(1.0, bad_delta, 2)


def test_pt_exponent_range_enforced():
    with pytest.raises(ValueError):
        make_pt(1.0, 1.0)


@pytest.mark.parametrize("family, n", [
    ("morse", 0), ("morse", 2), ("pt", 0), ("pt", 2), ("osc", 1),
])
def test_bound_states_solve_their_own_equation(family, n):
    # the state, its level, and the potential must agree: 5-point FD
    # residual of the stationary equation below 1e-6
    spec = {"morse": make_morse(1.0, 0.4, 2),
            "pt": make_pt(1.0, 3.0),
            "osc": make_oscillator()}[family]
    lo, hi = spec.window
    if family == "pt":
        lo, hi = lo + 1e-7, hi - 1e-7
    grid = interior_grid(lo, hi, 4001)
    state = bound_state(spec, n, grid)
    v0 = _v0_vec(spec, grid)
    from darboux_lab.fields import ComplexField, EigenState
    field = ComplexField(grid, v0.astype(complex))
    est = EigenState(energy(spec, n), grid, state.values.astype(complex),
                     1.0 + 0.0j, False, {})
    assert oracle.schrodinger_residual(est, field) < 1e-6


def test_bound_state_normalized_and_node_count():
    spec = make_morse(1.0, 0.4, 2)
    grid = interior_grid(spec.window[0], spec.window[1], 3001)
    h = grid[1] - grid[0]
    for n in range(3):
        st = bound_state(spec, n, grid)
        # the top level decays only like exp(-0.4 x) on the right, so a few
        # 1e-5 of its mass live beyond the window edge
        assert simpson_samples(st.values ** 2, h) == pytest.approx(1.0, abs=1e-4)
        sign_changes = int(np.sum(st.values[:-1] * st.values[1:] < 0.0))
        assert sign_changes == n
