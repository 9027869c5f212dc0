"""Transformation layer: predictions, fields, states, the real family."""

import math

import numpy as np
import pytest

from darboux_lab import darboux
from darboux_lab.ermakov import AlphaFunction, make_coeffs
from darboux_lab.fields import interior_grid
from darboux_lab.potentials import _v0_vec, energy, make_morse, make_pt
from darboux_lab.quadrature import simpson_samples
from darboux_lab.seeds import analytic_pair


def test_prediction_adds_epsilon_below_ground():
    spec = make_morse(1.0, 0.4, 2)
    pred = darboux.predict_spectrum(spec, 0.0, 3)
    assert pred.energies == pytest.approx((0.0, 2.65, 6.45, 8.25), abs=1e-12)
    assert pred.labels == ("eps", "E0", "E1", "E2")
    assert pred.multiplicities == (1, 1, 1, 1)


def test_prediction_in_gap_is_sorted():
    spec = make_morse(1.0, 0.4, 2)
    pred = darboux.predict_spectrum(spec, 4.55, 3)
    assert pred.energies == pytest.approx((2.65, 4.55, 6.45, 8.25), abs=1e-12)
    assert pred.labels[1] == "eps"


def test_prediction_merges_embedded_level():
    spec = make_morse(1.0, 0.4, 2)
    pred = darboux.predict_spectrum(spec, 6.45, 3)
    assert len(pred.energies) == 3
    assert pred.labels == ("E0", "E1+eps", "E2")
    assert pred.multiplicities == (1, 2, 1)


def test_beta_satisfies_riccati_equation(get_case):
    cons = get_case("case1")
    spec = cons.spec
    x = np.array([-0.8, 0.3, 1.7, 4.0, 9.5])
    beta, dbeta = darboux._beta_vec(cons.alpha.q_parts(x))
    resid = -dbeta + beta * beta - (_v0_vec(spec, x) - cons.pair.epsilon)
    assert np.all(np.abs(resid) < 1e-7)


def test_complex_potential_difference_tracks_beta_derivative(get_case):
    # V_lam - V0 = 2 beta' pointwise
    cons = get_case("case1")
    grid = interior_grid(-2.0, 10.0, 501)
    samples = cons.alpha.q_parts(grid)
    field = darboux.complex_potential(samples)
    v0 = _v0_vec(cons.spec, grid)
    _, dbeta = darboux._beta_vec(samples)
    assert np.max(np.abs(field.values - v0 - 2.0 * dbeta)) < 1e-9


def test_zero_total_area(get_case):
    area, boundary = darboux.zero_total_area(get_case("case1").alpha)
    assert abs(area) < 1e-6
    assert abs(area - boundary) < 1e-8


def test_pt_symmetry_split(get_case):
    # I0 = 0 gives a PT-symmetric potential; I0 != 0 visibly breaks it
    sym = get_case("case3")
    window = sym.spec.window
    grid = interior_grid(window[0] + 1e-7, window[1] - 1e-7, 801)
    f_sym = darboux.complex_potential(sym.alpha.q_parts(grid))
    assert darboux.pt_symmetry_check(f_sym) < 1e-10
    broken = get_case("case4")
    f_brk = darboux.complex_potential(broken.alpha.q_parts(grid))
    assert darboux.pt_symmetry_check(f_brk) > 1e-2


def test_transformed_states_are_binormalized(get_case):
    cons = get_case("case1")
    grid = interior_grid(-4.0, 16.0, 3001)
    h = float(grid[1] - grid[0])
    samples = cons.alpha.q_parts(grid)
    for n in range(2):
        st = darboux.transform_bound_state(samples, n)
        assert st.energy == pytest.approx(energy(cons.spec, n), abs=1e-12)
        assert st.provenance["seed_level"] == n
        assert st.provenance["new_index"] == n + 1
        assert not st.zero_binorm
        assert complex(st.binorm) == pytest.approx(1.0 + 0.0j, abs=1e-8)
        square = simpson_samples(st.samples * st.samples, h)
        assert complex(square) == pytest.approx(1.0 + 0.0j, abs=1e-6)


def test_missing_state_energy_tails_and_log_derivative(get_case):
    cons = get_case("case1")
    grid = interior_grid(-4.0, 16.0, 3001)
    samples = cons.alpha.q_parts(grid)
    st = darboux.missing_state(samples)
    assert st.energy == cons.pair.epsilon
    assert max(abs(st.samples[0]), abs(st.samples[-1])) < 1e-4
    # d/dx log psi_eps = beta where the state has support
    raw, draw = darboux._missing_with_derivative(samples)
    beta, _ = darboux._beta_vec(cons.alpha.q_parts(grid[::100]))
    logd = draw[::100] / raw[::100]
    assert np.max(np.abs(logd - beta)) < 1e-8


def test_missing_state_needs_a_nonreal_or_mixed_branch():
    pair = analytic_pair(make_morse(1.0, 0.4, 2), 0.0)
    alpha = AlphaFunction(pair, make_coeffs(0.0, 1.0, 0.0, pair.omega0))
    with pytest.raises(ValueError):
        darboux.missing_state(alpha.q_parts(interior_grid(-4.0, 16.0, 101)))


def test_nonzero_lambda_keeps_q_positive(get_case):
    # for lam != 0 the discriminant is negative, so the quadratic form never
    # vanishes; regularity of the complex potential rests on this
    for name in ("case1", "case4"):
        cons = get_case(name)
        window = cons.pair.window
        if cons.spec.family != "morse":
            window = (window[0] + 1e-7, window[1] - 1e-7)
        grid = interior_grid(window[0], window[1], 4001)
        q = cons.alpha.q_parts(grid).q
        assert float(np.min(q)) > 0.0


def _seed_samples(pair, grid):
    # the lam = 0 member reads only the seed pair, so any alpha over it does
    return AlphaFunction(pair, make_coeffs(0.0, 1.0, 1.0, pair.omega0)).q_parts(grid)


def test_real_family_singularities_sorted_and_inside_window():
    grid = interior_grid(-4.0, 16.0, 1201)
    pair = analytic_pair(make_morse(1.0, 0.4, 2), 4.55)
    _, sings = darboux.real_family_lambda0(_seed_samples(pair, grid), 1.0, 1)
    assert sings == sorted(sings)
    assert all(grid[0] < s < grid[-1] for s in sings)


def test_real_family_zeros_bracket_a_sign_change():
    # the member v/omega0 + sign gamma_m u_p changes sign across each zero
    grid = interior_grid(-4.0, 16.0, 1201)
    for eps in (4.55, 6.45):
        pair = analytic_pair(make_morse(1.0, 0.4, 2), eps)
        for sign in (1, -1):
            _, sings = darboux.real_family_lambda0(
                _seed_samples(pair, grid), 1.0, sign)

            def member(x, sign=sign):
                return pair.v(x)[0] / pair.omega0 + sign * pair.up(x)[0]

            z = np.array(sings)
            assert z.size == 2
            assert np.all(member(z - 1e-12) * member(z + 1e-12) < 0.0)


def test_real_family_zero_counts():
    grid_m = interior_grid(-4.0, 16.0, 1201)
    for eps in (4.55, 6.45):
        pair = analytic_pair(make_morse(1.0, 0.4, 2), eps)
        for sign in (1, -1):
            _, sings = darboux.real_family_lambda0(
                _seed_samples(pair, grid_m), 1.0, sign)
            assert len(sings) == 2
    pair = analytic_pair(make_pt(1.0, 3.0), 5.26)
    lo, hi = pair.spec.window
    grid_p = interior_grid(lo + 1e-7, hi - 1e-7, 1201)
    for gamma_m in (1.35, 0.7402):
        field, sings = darboux.real_family_lambda0(
            _seed_samples(pair, grid_p), gamma_m, 1)
        assert sings == []
        assert np.all(np.isfinite(field.values))


def test_real_family_member_solves_its_own_potential():
    # the reciprocal of the member is the eigenfunction at eps of the
    # family potential; check the stationary equation by finite differences
    pair = analytic_pair(make_pt(1.0, 3.0), 5.26)
    grid = interior_grid(-1.45, 1.45, 4001)
    field, sings = darboux.real_family_lambda0(_seed_samples(pair, grid), 1.35, 1)
    assert sings == []
    h = float(grid[1] - grid[0])
    v = field.values
    # spot-check the defining relation V = 2 eps - V0 + 2 (m'/m)^2 is smooth
    # and real on the window
    assert np.all(np.abs(np.imag(v)) == 0.0)
    assert np.max(np.abs(np.diff(v, 2) / (h * h))) < 1e7
